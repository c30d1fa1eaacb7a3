//! Request arguments.
//!
//! Handler arguments are a small ordered map of named [`Value`]s. They
//! round-trip losslessly through a compact text encoding so that the
//! interposition layer can store them in the provenance database and the
//! retroactive engine can later re-execute the original requests with the
//! original arguments (paper §3.6).

use std::collections::BTreeMap;
use std::fmt;

use trod_db::Value;

/// Named, ordered request arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    values: BTreeMap<String, Value>,
}

impl Args {
    /// Creates an empty argument map.
    pub fn new() -> Self {
        Args::default()
    }

    /// Builder-style insertion.
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.values.insert(name.into(), value.into());
        self
    }

    /// Inserts an argument.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.values.insert(name.into(), value.into());
    }

    /// Looks up an argument.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.values.get(name)
    }

    /// Looks up a text argument.
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(Value::as_text)
    }

    /// Looks up an integer argument.
    pub fn get_int(&self, name: &str) -> Option<i64> {
        self.values.get(name).and_then(Value::as_int)
    }

    /// Looks up a boolean argument.
    pub fn get_bool(&self, name: &str) -> Option<bool> {
        self.values.get(name).and_then(Value::as_bool)
    }

    /// Number of arguments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no arguments are present.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates over (name, value) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.values.iter()
    }

    /// Encodes the arguments as a single line of text. The encoding is
    /// deterministic (name order) so traces are stable.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push('|');
            }
            out.push_str(&escape(name));
            out.push('=');
            match value {
                Value::Null => out.push_str("n:"),
                Value::Bool(b) => out.push_str(&format!("b:{b}")),
                Value::Int(v) => out.push_str(&format!("i:{v}")),
                Value::Float(v) => out.push_str(&format!("f:{v}")),
                Value::Timestamp(v) => out.push_str(&format!("t:{v}")),
                Value::Text(s) => {
                    out.push_str("s:");
                    out.push_str(&escape(s));
                }
                Value::Bytes(b) => {
                    out.push_str("x:");
                    for byte in b {
                        out.push_str(&format!("{byte:02x}"));
                    }
                }
            }
        }
        out
    }

    /// Decodes arguments previously produced by [`Args::encode`].
    pub fn decode(encoded: &str) -> Result<Self, String> {
        let mut args = Args::new();
        if encoded.is_empty() {
            return Ok(args);
        }
        for pair in encoded.split('|') {
            let (name, rest) = pair
                .split_once('=')
                .ok_or_else(|| format!("malformed argument pair `{pair}`"))?;
            let (tag, payload) = rest
                .split_once(':')
                .ok_or_else(|| format!("malformed argument value `{rest}`"))?;
            let value = match tag {
                "n" => Value::Null,
                "b" => Value::Bool(
                    payload
                        .parse()
                        .map_err(|_| format!("bad bool `{payload}`"))?,
                ),
                "i" => Value::Int(
                    payload
                        .parse()
                        .map_err(|_| format!("bad int `{payload}`"))?,
                ),
                "f" => Value::Float(
                    payload
                        .parse()
                        .map_err(|_| format!("bad float `{payload}`"))?,
                ),
                "t" => {
                    Value::Timestamp(payload.parse().map_err(|_| format!("bad ts `{payload}`"))?)
                }
                "s" => Value::Text(unescape(payload)?),
                "x" => {
                    let mut bytes = Vec::with_capacity(payload.len() / 2);
                    let chars: Vec<char> = payload.chars().collect();
                    for chunk in chars.chunks(2) {
                        let s: String = chunk.iter().collect();
                        bytes.push(
                            u8::from_str_radix(&s, 16)
                                .map_err(|_| format!("bad hex `{payload}`"))?,
                        );
                    }
                    Value::Bytes(bytes)
                }
                other => return Err(format!("unknown value tag `{other}`")),
            };
            args.values.insert(unescape(name)?, value);
        }
        Ok(args)
    }
}

impl fmt::Display for Args {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.encode())
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '=' => out.push_str("%3D"),
            ':' => out.push_str("%3A"),
            c => out.push(c),
        }
    }
    out
}

/// Reverses [`escape`]: `%XX` escapes decode to bytes, and the result is
/// validated as UTF-8 once, so multi-byte characters survive whole.
fn unescape(s: &str) -> Result<String, String> {
    let mut out = Vec::with_capacity(s.len());
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let code = bytes
                .get(i + 1..i + 3)
                .and_then(|hex| std::str::from_utf8(hex).ok())
                .and_then(|hex| u8::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("bad escape in `{s}`"))?;
            out.push(code);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escapes in `{s}` are not UTF-8"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_accessors() {
        let args = Args::new()
            .with("user", "U1")
            .with("count", 3i64)
            .with("flag", true);
        assert_eq!(args.get_str("user"), Some("U1"));
        assert_eq!(args.get_int("count"), Some(3));
        assert_eq!(args.get_bool("flag"), Some(true));
        assert_eq!(args.get("missing"), None);
        assert_eq!(args.len(), 3);
        assert!(!args.is_empty());
    }

    #[test]
    fn encode_decode_roundtrip_simple() {
        let args = Args::new()
            .with("userId", "U1")
            .with("forum", "F2")
            .with("retries", 2i64)
            .with("nothing", Value::Null);
        let decoded = Args::decode(&args.encode()).unwrap();
        assert_eq!(decoded, args);
    }

    #[test]
    fn encode_decode_with_special_characters() {
        let args = Args::new()
            .with("note", "a|b=c:d%e")
            .with("empty", "")
            .with("bytes", Value::Bytes(vec![0xde, 0xad]));
        let decoded = Args::decode(&args.encode()).unwrap();
        assert_eq!(decoded, args);
    }

    #[test]
    fn empty_args_roundtrip() {
        let args = Args::new();
        assert_eq!(args.encode(), "");
        assert_eq!(Args::decode("").unwrap(), args);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Args::decode("no-equals-sign").is_err());
        assert!(Args::decode("a=z:1").is_err());
        assert!(Args::decode("a=i:notanumber").is_err());
        assert!(Args::decode("a=s:%2").is_err());
        assert!(Args::decode("a=s:%zz").is_err());
        assert!(Args::decode("a=s:%C3").is_err(), "a lone UTF-8 lead byte");
    }

    #[test]
    fn non_ascii_text_roundtrips() {
        let args = Args::new()
            .with("note", "Café über")
            .with("名前", "ß|€=✓:%");
        let decoded = Args::decode(&args.encode()).unwrap();
        assert_eq!(decoded.get_str("note"), Some("Café über"));
        assert_eq!(decoded, args);
    }

    /// Arbitrary Unicode text: printable ASCII (the escaped characters
    /// included) mixed with any scalar value.
    fn unicode(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        let code_point = prop_oneof![0x20u32..0x7f, 0u32..0x11_0000];
        prop::collection::vec(code_point, len)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_text_and_ints(
            entries in prop::collection::btree_map("[a-zA-Z0-9_|=:%]{1,12}", -1_000_000i64..1_000_000, 0..8),
            texts in prop::collection::btree_map(unicode(1..8), unicode(0..20), 0..8),
        ) {
            let mut args = Args::new();
            for (k, v) in &entries {
                args.set(format!("i_{k}"), *v);
            }
            for (k, v) in &texts {
                args.set(format!("s_{k}"), v.as_str());
            }
            let decoded = Args::decode(&args.encode()).unwrap();
            prop_assert_eq!(decoded, args);
        }
    }
}
