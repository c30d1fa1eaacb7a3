//! Hand-rolled JSON: the workspace's single escaper, single number
//! formatter, a compact writer, and a strict parser.
//!
//! Trace wire serialization ([`crate::wire`]), the server's JSON-RPC
//! responses, and the dump/load file format all go through this module so
//! there is exactly one place that decides how a string is escaped and
//! how a float is printed. `trod-core` re-exports it as `trod_core::json`.
//!
//! The parser is strict RFC 8259: no trailing commas, no comments, no
//! leading zeros, no bare control characters inside strings, surrogate
//! pairs required for astral `\u` escapes, and a recursion depth limit so
//! adversarial input cannot blow the stack.

use std::fmt;

/// Maximum nesting depth the parser accepts before giving up. Deep enough
/// for any real payload, shallow enough that recursion stays in-stack.
pub const MAX_DEPTH: usize = 128;

/// A JSON document. Objects preserve insertion order (and therefore
/// serialize deterministically), which the dump format relies on.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers are kept exact: a number literal without a fraction or
    /// exponent parses as `Int` when it fits an `i64`, so `i64` round-trips
    /// losslessly.
    Int(i64),
    /// An integer above `i64::MAX` (and at most `u64::MAX`), so `u64`
    /// round-trips losslessly too. It holds only such values: anything in
    /// the `i64` range is an `Int`, which is what [`From<u64>`] and the
    /// parser produce.
    UInt(u64),
    Float(f64),
    Str(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from key/value pairs, preserving order.
    pub fn obj<K: Into<String>>(pairs: Vec<(K, Json)>) -> Json {
        Json::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object (first match). `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Timestamps and sizes travel as non-negative integers, exact up to
    /// `u64::MAX`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            Json::UInt(u) => Some(*u),
            _ => None,
        }
    }

    /// Numeric value, widening integers to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::UInt(u) => Some(*u as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes compactly into `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Int(i) => write_int(out, i),
            Json::UInt(u) => write_int(out, u),
            Json::Float(f) => fmt_f64_into(out, *f),
            Json::Str(s) => escape_into(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Object(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a complete JSON document (trailing content is an error).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content after JSON value"));
        }
        Ok(value)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}
impl From<u64> for Json {
    fn from(u: u64) -> Json {
        i64::try_from(u).map_or(Json::UInt(u), Json::Int)
    }
}
impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::from(u as u64)
    }
}
impl From<f64> for Json {
    fn from(f: f64) -> Json {
        Json::Float(f)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Array(items)
    }
}

/// The workspace's one string escaper: writes `s` as a quoted JSON string
/// (surrounding quotes included) into `out`. Each run of characters that
/// need no escape is copied whole; every byte that does is ASCII, so the
/// runs end on character boundaries.
pub fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            _ => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// The workspace's one float formatter: shortest text that round-trips
/// (Rust's `Display` for `f64`), with a fraction forced so the token can
/// never be mistaken for an integer. Non-finite values have no JSON
/// representation and print as `null`; encoders that need to preserve
/// them (the dump format does) must tag them *before* reaching here.
pub fn fmt_f64(x: f64) -> String {
    let mut out = String::new();
    fmt_f64_into(&mut out, x);
    out
}

fn fmt_f64_into(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
        return;
    }
    let start = out.len();
    use fmt::Write as _;
    let _ = write!(out, "{x}");
    if !out[start..].contains(['.', 'e', 'E']) {
        out.push_str(".0");
    }
}

fn write_int(out: &mut String, i: impl fmt::Display) {
    use fmt::Write as _;
    let _ = write!(out, "{i}");
}

/// A parse error with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    pub pos: usize,
    pub detail: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.pos, self.detail)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, detail: impl Into<String>) -> JsonError {
        JsonError {
            pos: self.pos,
            detail: detail.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            if (0xD800..0xDC00).contains(&cp) {
                                // High surrogate: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                out.push(
                                    char::from_u32(c)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?,
                                );
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                out.push(
                                    char::from_u32(cp).ok_or_else(|| self.err("invalid \\u"))?,
                                );
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte. Those bytes are ASCII, so the run is
                    // whole UTF-8 characters.
                    let rest = &self.bytes[self.pos..];
                    let len = (rest.iter())
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    out.push_str(&self.text[self.pos..self.pos + len]);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut cp = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(b @ b'0'..=b'9') => (b - b'0') as u32,
                Some(b @ b'a'..=b'f') => (b - b'a' + 10) as u32,
                Some(b @ b'A'..=b'F') => (b - b'A' + 10) as u32,
                _ => return Err(self.err("invalid \\u escape")),
            };
            cp = cp * 16 + d;
            self.pos += 1;
        }
        Ok(cp)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one digit, or a non-zero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("leading zero in number"));
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digit required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            // An integer stays exact or is refused; it never becomes a float.
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::Int(i));
            }
            return text.parse::<u64>().map(Json::UInt).map_err(|_| JsonError {
                pos: start,
                detail: format!("integer {text} is outside -2^63..=2^64-1"),
            });
        }
        text.parse::<f64>()
            .map(Json::Float)
            .map_err(|_| self.err("unparseable number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn basics_round_trip() {
        let doc = Json::obj(vec![
            ("null", Json::Null),
            ("t", Json::Bool(true)),
            ("i", Json::Int(-42)),
            ("big", Json::Int(i64::MAX)),
            ("f", Json::Float(1.5)),
            ("whole", Json::Float(3.0)),
            ("s", Json::str("he said \"hi\"\n\tdone\u{1}\u{1F600}")),
            (
                "a",
                Json::Array(vec![Json::Int(1), Json::Null, Json::str("x")]),
            ),
            ("o", Json::obj(vec![("k", Json::str("v"))])),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn floats_never_collide_with_ints() {
        assert_eq!(Json::Float(3.0).to_string(), "3.0");
        assert_eq!(Json::Float(-0.0).to_string(), "-0.0");
        assert_eq!(Json::Int(3).to_string(), "3");
        assert_eq!(Json::parse("3.0").unwrap(), Json::Float(3.0));
        assert_eq!(Json::parse("3").unwrap(), Json::Int(3));
        assert_eq!(Json::parse("3e2").unwrap(), Json::Float(300.0));
        // i64 beyond f64's 2^53 precision still round-trips exactly.
        let n = 9007199254740993i64;
        assert_eq!(Json::parse(&n.to_string()).unwrap(), Json::Int(n));
    }

    #[test]
    fn u64_round_trips_exactly() {
        let above = i64::MAX as u64 + 1;
        for (u, text) in [
            (0, "0"),
            (i64::MAX as u64, "9223372036854775807"),
            (above, "9223372036854775808"),
            (u64::MAX, "18446744073709551615"),
        ] {
            let j = Json::from(u);
            assert_eq!(j.to_string(), text);
            assert_eq!(Json::parse(text).unwrap(), j);
            assert_eq!(j.as_u64(), Some(u));
        }
        // The `i64` range stays `Int`, so `as_i64` callers see no change.
        assert_eq!(Json::from(7u64), Json::Int(7));
        assert_eq!(Json::from(i64::MAX as u64).as_i64(), Some(i64::MAX));
        assert_eq!(Json::from(above), Json::UInt(above));
        assert_eq!(Json::from(above).as_i64(), None);
        assert_eq!(Json::Int(-1).as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap(), Json::Int(-1));
        assert_eq!(
            Json::parse("-9223372036854775808").unwrap(),
            Json::Int(i64::MIN)
        );
    }

    #[test]
    fn oversized_integer_literals_are_errors_not_floats() {
        for text in [
            "18446744073709551616",
            "-9223372036854775809",
            "100000000000000000000000",
        ] {
            let err = Json::parse(text).unwrap_err();
            assert_eq!(err.pos, 0, "{text}: {err}");
            let err = Json::parse(&format!("[1, {text}]")).unwrap_err();
            assert_eq!(err.pos, 4, "{text}: {err}");
        }
        // With a fraction or an exponent it is a float, as before.
        assert_eq!(
            Json::parse("18446744073709551616.0").unwrap(),
            Json::Float(18446744073709551616.0)
        );
        assert_eq!(Json::parse("1e30").unwrap(), Json::Float(1e30));
    }

    #[test]
    fn non_finite_floats_print_null() {
        assert_eq!(Json::Float(f64::NAN).to_string(), "null");
        assert_eq!(Json::Float(f64::INFINITY).to_string(), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn strict_rejections() {
        for bad in [
            "",
            "tru",
            "01",
            "1.",
            ".5",
            "+1",
            "[1,]",
            "{\"a\":}",
            "\"\\x\"",
            "\"\u{1}\"",
            "\"\\ud800\"",
            "1 2",
            "{\"a\" 1}",
            "nan",
            "--1",
            "1e",
            "[",
            "\"abc",
        ] {
            assert!(Json::parse(bad).is_err(), "expected parse error: {bad:?}");
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::str("\u{1F600}")
        );
        assert_eq!(Json::parse("\"\\u0041\\u00e9\"").unwrap(), Json::str("Aé"));
    }

    #[test]
    fn deep_nesting_is_rejected_not_fatal() {
        let deep = "[".repeat(4096) + &"]".repeat(4096);
        assert!(Json::parse(&deep).is_err());
    }

    /// Strings biased toward JSON-hostile characters: quotes, backslashes,
    /// control bytes, astral plane.
    fn arb_string() -> impl Strategy<Value = String> {
        prop::collection::vec(0u32..0xFFFF, 0..48).prop_map(|tokens| {
            tokens
                .into_iter()
                .map(|t| match t % 24 {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => '\r',
                    4 => '\t',
                    5 => '\u{0}',
                    6 => '\u{8}',
                    7 => '\u{c}',
                    8 => '\u{1f}',
                    9 => '/',
                    10 => '\u{7f}',
                    11 => '\u{1F600}',
                    12 => '\u{fffd}',
                    _ => char::from_u32(0x20 + t % 0xD7D0).unwrap_or('x'),
                })
                .collect()
        })
    }

    /// The reference escaper: one `match` per `char`. `escape_into` must
    /// write exactly its bytes.
    fn escape_by_char(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Any string: every control character, `"`, `\\`, `\u{7f}`, the
    /// line and paragraph separators, printable ASCII, the rest of the
    /// BMP and non-BMP characters.
    fn arb_any_string() -> impl Strategy<Value = String> {
        prop::collection::vec((0u32..6, 0u32..0x110000), 0..64).prop_map(|picks| {
            (picks.into_iter())
                .filter_map(|(class, n)| match class {
                    0 => char::from_u32(n % 0x20),
                    1 => Some(['"', '\\', '\u{7f}', '\u{2028}', '\u{2029}'][n as usize % 5]),
                    2 => char::from_u32(0x20 + n % 0x5f),
                    3 => char::from_u32(0x80 + n % (0xd800 - 0x80)),
                    4 => char::from_u32(0xe000 + n % 0x2000),
                    _ => char::from_u32(0x10000 + n % 0x100000),
                })
                .collect()
        })
    }

    #[derive(Debug, Clone)]
    struct ArbJson {
        depth: u32,
    }

    impl Strategy for ArbJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let arms = if self.depth == 0 { 5 } else { 7 };
            match rng.below(arms) {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 1),
                2 if rng.below(2) == 0 => Json::Int(rng.next_u64() as i64),
                2 => Json::from(rng.next_u64()),
                3 => {
                    let frac = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    Json::Float(frac * 2e9 - 1e9)
                }
                4 => Json::Str(arb_string().generate(rng)),
                5 => Json::Array(
                    (0..rng.below(5))
                        .map(|_| {
                            ArbJson {
                                depth: self.depth - 1,
                            }
                            .generate(rng)
                        })
                        .collect(),
                ),
                _ => Json::Object(
                    (0..rng.below(5))
                        .map(|_| {
                            (
                                arb_string().generate(rng),
                                ArbJson {
                                    depth: self.depth - 1,
                                }
                                .generate(rng),
                            )
                        })
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The satellite's escaping fuzz: any string survives
        /// escape → parse exactly.
        #[test]
        fn escaping_round_trips(s in arb_string()) {
            let mut quoted = String::new();
            escape_into(&mut quoted, &s);
            prop_assert_eq!(Json::parse(&quoted).unwrap(), Json::Str(s));
        }

        /// Copying runs writes the bytes the per-`char` escaper wrote, and
        /// the parser, which copies runs too, reads them back.
        #[test]
        fn escaping_by_runs_equals_the_per_char_escaper(s in arb_any_string()) {
            let mut quoted = String::new();
            escape_into(&mut quoted, &s);
            prop_assert_eq!(&quoted, &escape_by_char(&s));
            prop_assert_eq!(Json::parse(&quoted).unwrap(), Json::Str(s));
        }

        /// Whole documents round-trip through the writer and parser.
        #[test]
        fn documents_round_trip(doc in ArbJson { depth: 3 }) {
            let text = doc.to_string();
            prop_assert_eq!(Json::parse(&text).unwrap(), doc);
        }

        /// Finite floats round-trip through the one number formatter.
        #[test]
        fn floats_round_trip(x in -1.0e12f64..1.0e12) {
            let text = fmt_f64(x);
            prop_assert_eq!(Json::parse(&text).unwrap().as_f64().unwrap(), x);
        }

        /// The parser never panics on arbitrary input, hostile or not.
        #[test]
        fn parser_never_panics(s in arb_string()) {
            let _ = Json::parse(&s);
            let _ = Json::parse(&format!("[{s}]"));
        }
    }
}
