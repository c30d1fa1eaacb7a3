//! Recursive-descent parser for the supported SQL subset.
//!
//! Grammar (informal):
//!
//! ```text
//! select   := SELECT items FROM table (',' table)* [ON expr]
//!             (JOIN table ON expr)*
//!             [WHERE expr] [GROUP BY exprs] [ORDER BY key (',' key)*]
//!             [LIMIT int] [';']
//! items    := '*' | item (',' item)*
//! item     := agg '(' ('*' | expr) ')' [AS ident] | expr [AS ident]
//! expr     := or_expr
//! or_expr  := and_expr (OR and_expr)*
//! and_expr := not_expr (AND not_expr)*
//! not_expr := NOT not_expr | predicate
//! predicate:= primary [cmp primary | IS [NOT] NULL | [NOT] IN '(' literals ')']
//! primary  := literal | column | '(' expr ')'
//! column   := ident ['.' ident]
//! ```

use trod_db::Value;

use crate::ast::{AggFunc, BinOp, Expr, Join, OrderKey, SelectItem, SelectStmt, TableRef};
use crate::error::{QueryError, QueryResultT};
use crate::token::{tokenize, Token};

/// Parses a single SELECT statement.
pub fn parse(sql: &str) -> QueryResultT<SelectStmt> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0 };
    let stmt = parser.parse_select()?;
    parser.expect_end()?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_keyword(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> QueryResultT<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(QueryError::parse(format!(
                "expected keyword `{kw}`, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &Token) -> QueryResultT<()> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(QueryError::parse(format!(
                "expected {tok:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_ident(&mut self) -> QueryResultT<String> {
        match self.next() {
            Some(Token::Ident(s) | Token::QuotedIdent(s)) => Ok(s),
            other => Err(QueryError::parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn expect_end(&mut self) -> QueryResultT<()> {
        self.eat(&Token::Semicolon);
        if let Some(t) = self.peek() {
            return Err(QueryError::parse(format!(
                "unexpected trailing token {t:?}"
            )));
        }
        Ok(())
    }

    fn parse_select(&mut self) -> QueryResultT<SelectStmt> {
        self.expect_keyword("SELECT")?;
        let items = self.parse_select_items()?;
        self.expect_keyword("FROM")?;
        let mut from = vec![self.parse_table_ref()?];
        while self.eat(&Token::Comma) {
            from.push(self.parse_table_ref()?);
        }
        let from_on = if self.eat_keyword("ON") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut joins = Vec::new();
        loop {
            // INNER JOIN / JOIN.
            if self.eat_keyword("INNER") {
                self.expect_keyword("JOIN")?;
            } else if !self.eat_keyword("JOIN") {
                break;
            }
            let table = self.parse_table_ref()?;
            self.expect_keyword("ON")?;
            let on = self.parse_expr()?;
            joins.push(Join { table, on });
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_expr()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let descending = if self.eat_keyword("DESC") {
                    true
                } else {
                    self.eat_keyword("ASC");
                    false
                };
                order_by.push(OrderKey { expr, descending });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(QueryError::parse(format!(
                        "expected a non-negative integer after LIMIT, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            from_on,
            joins,
            where_clause,
            group_by,
            order_by,
            limit,
        })
    }

    fn parse_select_items(&mut self) -> QueryResultT<Vec<SelectItem>> {
        if self.eat(&Token::Star) {
            return Ok(vec![SelectItem::Wildcard]);
        }
        let mut items = vec![self.parse_select_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.parse_select_item()?);
        }
        Ok(items)
    }

    fn parse_select_item(&mut self) -> QueryResultT<SelectItem> {
        // Aggregate?
        if let Some(Token::Ident(name)) = self.peek() {
            let func = match name.to_ascii_uppercase().as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                "AVG" => Some(AggFunc::Avg),
                _ => None,
            };
            if let Some(func) = func {
                if self.tokens.get(self.pos + 1) == Some(&Token::LParen) {
                    self.pos += 2; // consume name and '('
                    let arg = if self.eat(&Token::Star) {
                        None
                    } else {
                        Some(self.parse_expr()?)
                    };
                    self.expect(&Token::RParen)?;
                    let alias = self.parse_alias()?;
                    return Ok(SelectItem::Aggregate { func, arg, alias });
                }
            }
        }
        let expr = self.parse_expr()?;
        let alias = self.parse_alias()?;
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_alias(&mut self) -> QueryResultT<Option<String>> {
        if self.eat_keyword("AS") {
            Ok(Some(self.expect_ident()?))
        } else {
            Ok(None)
        }
    }

    fn parse_table_ref(&mut self) -> QueryResultT<TableRef> {
        let table = self.expect_ident()?;
        // `AS alias` or a bare alias identifier (but not a keyword that
        // starts the next clause).
        let alias = if self.eat_keyword("AS") {
            Some(self.expect_ident()?)
        } else if let Some(Token::QuotedIdent(_)) = self.peek() {
            Some(self.expect_ident()?)
        } else if let Some(Token::Ident(next)) = self.peek() {
            const CLAUSE_KEYWORDS: [&str; 9] = [
                "ON", "JOIN", "INNER", "WHERE", "GROUP", "ORDER", "LIMIT", "AS", "ASC",
            ];
            if CLAUSE_KEYWORDS
                .iter()
                .any(|kw| next.eq_ignore_ascii_case(kw))
            {
                None
            } else {
                Some(self.expect_ident()?)
            }
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    fn parse_expr(&mut self) -> QueryResultT<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> QueryResultT<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> QueryResultT<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> QueryResultT<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.parse_not()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> QueryResultT<Expr> {
        let left = self.parse_primary()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(if negated {
                Expr::IsNotNull(Box::new(left))
            } else {
                Expr::IsNull(Box::new(left))
            });
        }
        // [NOT] IN (...)
        let negated_in = if self.peek().is_some_and(|t| t.is_keyword("NOT"))
            && self
                .tokens
                .get(self.pos + 1)
                .is_some_and(|t| t.is_keyword("IN"))
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_keyword("IN") {
            self.expect(&Token::LParen)?;
            let mut list = vec![self.parse_primary()?];
            while self.eat(&Token::Comma) {
                list.push(self.parse_primary()?);
            }
            self.expect(&Token::RParen)?;
            let expr = Expr::InList {
                expr: Box::new(left),
                list,
            };
            return Ok(if negated_in {
                Expr::Not(Box::new(expr))
            } else {
                expr
            });
        }
        // Comparison.
        let op = match self.peek() {
            Some(Token::Eq) => Some(BinOp::Eq),
            Some(Token::NotEq) => Some(BinOp::NotEq),
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::LtEq) => Some(BinOp::LtEq),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::GtEq) => Some(BinOp::GtEq),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.parse_primary()?;
            return Ok(Expr::Compare {
                left: Box::new(left),
                op,
                right: Box::new(right),
            });
        }
        Ok(left)
    }

    fn parse_primary(&mut self) -> QueryResultT<Expr> {
        match self.next() {
            Some(Token::Int(v)) => Ok(Expr::Literal(Value::Int(v))),
            Some(Token::Float(v)) => Ok(Expr::Literal(Value::Float(v))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Text(s))),
            Some(Token::LParen) => {
                let inner = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("NULL") => {
                Ok(Expr::Literal(Value::Null))
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("TRUE") => {
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Some(Token::Ident(name)) if name.eq_ignore_ascii_case("FALSE") => {
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Some(Token::Ident(name) | Token::QuotedIdent(name)) => {
                if self.eat(&Token::Dot) {
                    let column = self.expect_ident()?;
                    Ok(Expr::Column {
                        qualifier: Some(name),
                        name: column,
                    })
                } else {
                    Ok(Expr::Column {
                        qualifier: None,
                        name,
                    })
                }
            }
            other => Err(QueryError::parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_declarative_debugging_query() {
        let sql = "SELECT Timestamp, ReqId, HandlerName \
                   FROM Executions as E, ForumEvents as F \
                   ON E.TxnId = F.TxnId \
                   WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert' \
                   ORDER BY Timestamp ASC;";
        let stmt = parse(sql).unwrap();
        assert_eq!(stmt.items.len(), 3);
        assert_eq!(stmt.from.len(), 2);
        assert_eq!(stmt.from[0].binding_name(), "E");
        assert_eq!(stmt.from[1].binding_name(), "F");
        assert!(stmt.from_on.is_some());
        let where_conjuncts = stmt.where_clause.as_ref().unwrap().conjuncts().len();
        assert_eq!(where_conjuncts, 3);
        assert_eq!(stmt.order_by.len(), 1);
        assert!(!stmt.order_by[0].descending);
    }

    #[test]
    fn quoted_names_are_tables_aliases_and_columns_never_keywords() {
        let sql = r#"SELECT "kv_key", k."kv_value" FROM "kv:carts" "k" WHERE "NULL" >= 'cart:' ORDER BY kv_key"#;
        let stmt = parse(sql).unwrap();
        assert_eq!(stmt.from[0].table, "kv:carts");
        assert_eq!(stmt.from[0].binding_name(), "k");
        let columns: Vec<String> = stmt
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Expr {
                    expr: Expr::Column { qualifier, name },
                    ..
                } => format!("{qualifier:?}.{name}"),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(columns, ["None.kv_key", "Some(\"k\").kv_value"]);
        // A quoted `NULL` is the column of that name, not the literal.
        assert!(format!("{:?}", stmt.where_clause).contains("name: \"NULL\""));
        // A quoted `COUNT` is a column, not an aggregate.
        let stmt = parse(r#"SELECT "COUNT" FROM t"#).unwrap();
        assert!(matches!(stmt.items[0], SelectItem::Expr { .. }));
    }

    #[test]
    fn parses_the_papers_access_control_query() {
        let sql = "SELECT Timestamp, ReqId, HandlerName \
                   FROM Executions as E, ProfileEvents as P \
                   ON E.TxnId = P.TxnId \
                   WHERE P.UserName != P.UpdatedBy AND P.Type = 'Update'";
        let stmt = parse(sql).unwrap();
        assert_eq!(stmt.from[1].table, "ProfileEvents");
        assert!(stmt.where_clause.is_some());
    }

    #[test]
    fn parses_explicit_joins_group_by_and_limit() {
        let sql = "SELECT HandlerName, COUNT(*) AS n FROM Executions \
                   JOIN ForumEvents ON Executions.TxnId = ForumEvents.TxnId \
                   WHERE ForumEvents.Type = 'Insert' \
                   GROUP BY HandlerName ORDER BY n DESC LIMIT 10";
        let stmt = parse(sql).unwrap();
        assert_eq!(stmt.joins.len(), 1);
        assert!(stmt.is_aggregate());
        assert_eq!(stmt.group_by.len(), 1);
        assert_eq!(stmt.limit, Some(10));
        assert!(stmt.order_by[0].descending);
        assert_eq!(stmt.items[1].output_name(), "n");
    }

    #[test]
    fn parses_wildcard_and_aggregates_without_group_by() {
        let stmt = parse("SELECT * FROM t").unwrap();
        assert_eq!(stmt.items, vec![SelectItem::Wildcard]);
        let stmt = parse("SELECT COUNT(*), MAX(ts) FROM t WHERE a IN (1, 2, 3)").unwrap();
        assert!(stmt.is_aggregate());
        assert_eq!(stmt.items.len(), 2);
    }

    #[test]
    fn parses_is_null_not_in_and_parentheses() {
        let stmt =
            parse("SELECT a FROM t WHERE (a IS NULL OR b IS NOT NULL) AND c NOT IN (1,2)").unwrap();
        let w = stmt.where_clause.unwrap();
        assert_eq!(w.conjuncts().len(), 2);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a t").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t extra junk here").is_err());
        assert!(parse("UPDATE t SET a = 1").is_err());
    }

    #[test]
    fn bare_table_aliases_without_as() {
        let stmt = parse("SELECT e.a FROM Executions e WHERE e.a = 1").unwrap();
        assert_eq!(stmt.from[0].binding_name(), "e");
    }

    #[test]
    fn inner_join_keyword_accepted() {
        let stmt = parse("SELECT a FROM t INNER JOIN u ON t.id = u.id").unwrap();
        assert_eq!(stmt.joins.len(), 1);
    }
}
