//! Abstract syntax tree for the supported SQL subset.

use std::fmt;

use trod_db::Value;

/// Renders `s` as a SQL text literal: single-quoted, each `'` doubled
/// (the escape the tokenizer reads back). Every value pasted into SQL text
/// goes through this.
pub fn text_literal(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Comparison operators in expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
        };
        f.write_str(s)
    }
}

/// A scalar or boolean expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A possibly qualified column reference (`E.TxnId` or `Timestamp`).
    Column {
        qualifier: Option<String>,
        name: String,
    },
    /// A literal value.
    Literal(Value),
    /// Binary comparison.
    Compare {
        left: Box<Expr>,
        op: BinOp,
        right: Box<Expr>,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>),
    IsNotNull(Box<Expr>),
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn column(name: impl Into<String>) -> Self {
        Expr::Column {
            qualifier: None,
            name: name.into(),
        }
    }

    /// Convenience constructor for a qualified column reference.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        Expr::Column {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }

    /// Splits a conjunction into its conjuncts (`a AND b AND c` → 3 exprs).
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        match self {
            Expr::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            other => out.push(other),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => match v {
                Value::Text(s) => f.write_str(&text_literal(s)),
                other => write!(f, "{other}"),
            },
            Expr::Compare { left, op, right } => write!(f, "{left} {op} {right}"),
            Expr::And(a, b) => write!(f, "({a} AND {b})"),
            Expr::Or(a, b) => write!(f, "({a} OR {b})"),
            Expr::Not(e) => write!(f, "NOT ({e})"),
            Expr::IsNull(e) => write!(f, "{e} IS NULL"),
            Expr::IsNotNull(e) => write!(f, "{e} IS NOT NULL"),
            Expr::InList { expr, list } => {
                write!(f, "{expr} IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        };
        f.write_str(s)
    }
}

/// A single item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `SELECT *`
    Wildcard,
    /// A plain expression with an optional alias.
    Expr { expr: Expr, alias: Option<String> },
    /// An aggregate call; `arg == None` means `COUNT(*)`.
    Aggregate {
        func: AggFunc,
        arg: Option<Expr>,
        alias: Option<String>,
    },
}

impl SelectItem {
    /// The output column name for this item.
    pub fn output_name(&self) -> String {
        match self {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| expr.to_string()),
            SelectItem::Aggregate { func, arg, alias } => alias.clone().unwrap_or_else(|| {
                let arg = arg
                    .as_ref()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|| "*".to_string());
                format!("{func}({arg})")
            }),
        }
    }
}

/// A table reference in the FROM clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is referred to by in column qualifiers.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An explicit `JOIN ... ON ...` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub table: TableRef,
    pub on: Expr,
}

/// An ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub expr: Expr,
    pub descending: bool,
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    /// Comma-separated FROM tables (the paper's `FROM A as X, B as Y`).
    pub from: Vec<TableRef>,
    /// Optional `ON <expr>` directly after the FROM list — the join
    /// condition syntax the paper's example queries use.
    pub from_on: Option<Expr>,
    /// Explicit `JOIN ... ON ...` clauses.
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// True if the statement uses aggregation (aggregates or GROUP BY).
    pub fn is_aggregate(&self) -> bool {
        !self.group_by.is_empty()
            || self
                .items
                .iter()
                .any(|i| matches!(i, SelectItem::Aggregate { .. }))
    }

    /// All table references, FROM tables first then JOINed tables.
    pub fn all_tables(&self) -> Vec<&TableRef> {
        self.from
            .iter()
            .chain(self.joins.iter().map(|j| &j.table))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let e = Expr::And(
            Box::new(Expr::And(
                Box::new(Expr::column("a")),
                Box::new(Expr::column("b")),
            )),
            Box::new(Expr::column("c")),
        );
        assert_eq!(e.conjuncts().len(), 3);
        assert_eq!(Expr::column("x").conjuncts().len(), 1);
    }

    #[test]
    fn select_item_output_names() {
        assert_eq!(
            SelectItem::Expr {
                expr: Expr::qualified("E", "TxnId"),
                alias: None
            }
            .output_name(),
            "E.TxnId"
        );
        assert_eq!(
            SelectItem::Expr {
                expr: Expr::column("a"),
                alias: Some("renamed".into())
            }
            .output_name(),
            "renamed"
        );
        assert_eq!(
            SelectItem::Aggregate {
                func: AggFunc::Count,
                arg: None,
                alias: None
            }
            .output_name(),
            "COUNT(*)"
        );
    }

    #[test]
    fn table_ref_binding_name() {
        let t = TableRef {
            table: "Executions".into(),
            alias: Some("E".into()),
        };
        assert_eq!(t.binding_name(), "E");
        let t = TableRef {
            table: "Executions".into(),
            alias: None,
        };
        assert_eq!(t.binding_name(), "Executions");
    }

    #[test]
    fn display_of_expressions() {
        let e = Expr::Compare {
            left: Box::new(Expr::qualified("F", "UserId")),
            op: BinOp::Eq,
            right: Box::new(Expr::Literal(Value::Text("U1".into()))),
        };
        assert_eq!(e.to_string(), "F.UserId = 'U1'");
        let quoted = Expr::Literal(Value::Text("it's".into()));
        assert_eq!(quoted.to_string(), "'it''s'");
    }

    #[test]
    fn text_literals_read_back_as_the_same_text() {
        use crate::token::{tokenize, Token};
        for s in ["O'Brien", "U1' OR F.Type = 'Read", "José", "''", ""] {
            let tokens = tokenize(&text_literal(s)).unwrap();
            assert_eq!(tokens, vec![Token::Str(s.into())]);
        }
    }
}
