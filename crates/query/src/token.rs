//! SQL tokenizer.

use crate::error::{QueryError, QueryResultT};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Keyword or identifier (keywords are recognized case-insensitively
    /// by the parser; the lexer preserves the original text).
    Ident(String),
    /// A double-quoted identifier, with `""` as the escape for a quote:
    /// a name like `"kv:carts"` that is no bare identifier. It is never a
    /// keyword.
    QuotedIdent(String),
    /// String literal, single quotes, with '' as the escape for a quote.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    Comma,
    Dot,
    LParen,
    RParen,
    Star,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Semicolon,
}

impl Token {
    /// True if this token is the given keyword (case-insensitive).
    pub fn is_keyword(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

/// Tokenizes a SQL string.
pub fn tokenize(sql: &str) -> QueryResultT<Vec<Token>> {
    let bytes = sql.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            c if c.is_ascii_whitespace() => i += 1,
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            '.' => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '=' => {
                tokens.push(Token::Eq);
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    return Err(QueryError::Lex {
                        position: i,
                        message: "expected `=` after `!`".into(),
                    });
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::LtEq);
                    i += 2;
                } else if bytes.get(i + 1) == Some(&b'>') {
                    tokens.push(Token::NotEq);
                    i += 2;
                } else {
                    tokens.push(Token::Lt);
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&b'=') {
                    tokens.push(Token::GtEq);
                    i += 2;
                } else {
                    tokens.push(Token::Gt);
                    i += 1;
                }
            }
            '\'' => {
                let (s, next) = lex_quoted(sql, i, "string literal")?;
                tokens.push(Token::Str(s));
                i = next;
            }
            '"' => {
                let (s, next) = lex_quoted(sql, i, "quoted identifier")?;
                if s.is_empty() {
                    return Err(QueryError::Lex {
                        position: i,
                        message: "empty quoted identifier".into(),
                    });
                }
                tokens.push(Token::QuotedIdent(s));
                i = next;
            }
            '-' if bytes.get(i + 1) == Some(&b'-') => {
                // Line comment.
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            c if c.is_ascii_digit()
                || (c == '-' && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit())) =>
            {
                let (tok, next) = lex_number(sql, i)?;
                tokens.push(tok);
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                tokens.push(Token::Ident(sql[start..i].to_string()));
            }
            other => {
                return Err(QueryError::Lex {
                    position: i,
                    message: format!("unexpected character `{other}`"),
                })
            }
        }
    }
    Ok(tokens)
}

/// Reads the text between the quote at `start` and its closing twin, a
/// doubled quote standing for one.
fn lex_quoted(sql: &str, start: usize, what: &str) -> QueryResultT<(String, usize)> {
    // Copied by slices between quotes, so multi-byte characters survive.
    let quote_char = char::from(sql.as_bytes()[start]);
    let mut out = String::new();
    let mut from = start + 1;
    while let Some(offset) = sql[from..].find(quote_char) {
        let quote = from + offset;
        out.push_str(&sql[from..quote]);
        if !sql[quote + 1..].starts_with(quote_char) {
            return Ok((out, quote + 1));
        }
        out.push(quote_char);
        from = quote + 2;
    }
    Err(QueryError::Lex {
        position: start,
        message: format!("unterminated {what}"),
    })
}

fn lex_number(sql: &str, start: usize) -> QueryResultT<(Token, usize)> {
    let bytes = sql.as_bytes();
    let mut i = start;
    if bytes[i] == b'-' {
        i += 1;
    }
    let mut is_float = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_digit() {
            i += 1;
        } else if c == '.' && !is_float && bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) {
            is_float = true;
            i += 1;
        } else {
            break;
        }
    }
    let text = &sql[start..i];
    let tok = if is_float {
        Token::Float(text.parse().map_err(|_| QueryError::Lex {
            position: start,
            message: format!("invalid float `{text}`"),
        })?)
    } else {
        Token::Int(text.parse().map_err(|_| QueryError::Lex {
            position: start,
            message: format!("invalid integer `{text}`"),
        })?)
    };
    Ok((tok, i))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_papers_query() {
        let sql = "SELECT Timestamp, ReqId, HandlerName \
                   FROM Executions as E, ForumEvents as F \
                   ON E.TxnId = F.TxnId \
                   WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert' \
                   ORDER BY Timestamp ASC;";
        let tokens = tokenize(sql).unwrap();
        assert!(tokens.iter().any(|t| t.is_keyword("SELECT")));
        assert!(tokens
            .iter()
            .any(|t| matches!(t, Token::Str(s) if s == "U1")));
        assert_eq!(*tokens.last().unwrap(), Token::Semicolon);
    }

    #[test]
    fn numbers_and_operators() {
        let tokens = tokenize("a >= 10 AND b < 2.5 AND c != -3 OR d <> 4").unwrap();
        assert!(tokens.contains(&Token::GtEq));
        assert!(tokens.contains(&Token::Int(10)));
        assert!(tokens.contains(&Token::Float(2.5)));
        assert!(tokens.contains(&Token::Int(-3)));
        assert_eq!(tokens.iter().filter(|t| **t == Token::NotEq).count(), 2);
    }

    #[test]
    fn string_escapes() {
        let tokens = tokenize("'it''s fine'").unwrap();
        assert_eq!(tokens, vec![Token::Str("it's fine".into())]);
    }

    #[test]
    fn non_ascii_string_literals_keep_their_characters() {
        let tokens = tokenize("name = 'José' OR name = 'Zoë''s 日本'").unwrap();
        assert!(tokens.contains(&Token::Str("José".into())));
        assert!(tokens.contains(&Token::Str("Zoë's 日本".into())));
    }

    #[test]
    fn comments_are_skipped() {
        let tokens = tokenize("SELECT a -- trailing comment\nFROM t").unwrap();
        assert_eq!(tokens.len(), 4);
    }

    #[test]
    fn lex_errors_carry_positions() {
        let err = tokenize("SELECT @").unwrap_err();
        assert!(matches!(err, QueryError::Lex { position: 7, .. }));
        let err = tokenize("'unterminated").unwrap_err();
        assert!(matches!(err, QueryError::Lex { .. }));
        let err = tokenize("a ! b").unwrap_err();
        assert!(matches!(err, QueryError::Lex { .. }));
    }

    #[test]
    fn quoted_identifiers_take_any_name() {
        let tokens = tokenize(r#"SELECT kv_key FROM "kv:carts" WHERE "a""b" = 'x'"#).unwrap();
        assert!(tokens.contains(&Token::QuotedIdent("kv:carts".into())));
        // `""` inside a quoted name is one quote.
        assert!(tokens.contains(&Token::QuotedIdent("a\"b".into())));
        assert_eq!(
            tokenize(r#""""""#).unwrap(),
            vec![Token::QuotedIdent("\"".into())]
        );
        assert_eq!(
            tokenize(r#""日本 x""#).unwrap(),
            vec![Token::QuotedIdent("日本 x".into())]
        );
    }

    #[test]
    fn a_quoted_name_is_never_a_keyword() {
        for kw in ["SELECT", "from", "Where", "NULL", "count"] {
            let tokens = tokenize(&format!("\"{kw}\"")).unwrap();
            assert_eq!(tokens, vec![Token::QuotedIdent(kw.into())]);
            assert!(!tokens[0].is_keyword(kw), "{kw}");
        }
    }

    #[test]
    fn an_unterminated_quoted_name_is_a_lex_error() {
        for (sql, position) in [
            (r#"SELECT a FROM "kv:carts"#, 14),
            (r#""a"""#, 0),
            (r#"x ""#, 2),
        ] {
            match tokenize(sql) {
                Err(QueryError::Lex { position: p, .. }) => assert_eq!(p, position, "{sql}"),
                other => panic!("{sql}: expected a lex error, got {other:?}"),
            }
        }
        // An empty quoted name is refused too.
        assert!(matches!(
            tokenize(r#"SELECT a FROM """#),
            Err(QueryError::Lex { position: 14, .. })
        ));
    }

    #[test]
    fn dotted_identifiers_tokenize_as_parts() {
        let tokens = tokenize("E.TxnId").unwrap();
        assert_eq!(
            tokens,
            vec![
                Token::Ident("E".into()),
                Token::Dot,
                Token::Ident("TxnId".into())
            ]
        );
    }
}
