//! Request arguments.
//!
//! Handler arguments are a small ordered map of named [`Value`]s. They
//! have one encoding, the JSON object a `trod_invoke` call carries
//! ([`Args::to_json`] / [`Args::from_json`]). The interposition layer
//! stores its text in the provenance database, where SQL and wire
//! clients read it as data, and the retroactive engine decodes it to
//! re-execute the original requests with the original arguments (paper
//! §3.6).

use std::collections::BTreeMap;

use trod_db::Value;
use trod_trace::json::Json;
use trod_trace::wire::{self, WireError};

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

    /// The arguments as the JSON object `trod_invoke` takes: one member
    /// per argument, in name order, each value in the lossless wire
    /// encoding ([`wire::value_to_json`]). Its text is what the provenance
    /// database stores in `Requests.Args`.
    pub fn to_json(&self) -> Json {
        Json::Object(
            self.values
                .iter()
                .map(|(name, value)| (name.clone(), wire::value_to_json(value)))
                .collect(),
        )
    }

    /// Reads an object written by [`Args::to_json`]. Anything else, or a
    /// member that is no wire value, is a [`WireError`].
    pub fn from_json(json: &Json) -> Result<Self, WireError> {
        let fields = json
            .as_object()
            .ok_or_else(|| WireError(format!("arguments must be an object, not {json}")))?;
        let values = fields
            .iter()
            .map(|(name, value)| Ok((name.clone(), wire::value_from_json(value)?)))
            .collect::<Result<_, WireError>>()?;
        Ok(Args { values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The path from a handler start to a re-execution: the text in
    /// `Requests.Args`, read back.
    fn from_text(text: &str) -> Result<Args, String> {
        let json = Json::parse(text).map_err(|e| e.to_string())?;
        Args::from_json(&json).map_err(|e| e.to_string())
    }

    /// `Debug`, not `==`: `Value`'s `==` equates an `Int` with the
    /// `Timestamp` or `Float` of the same number, while `Debug` tells every
    /// kind and every float apart (a NaN's payload aside).
    fn exact(args: &Args) -> String {
        format!("{args:?}")
    }

    /// Every `Value` kind at its edges.
    fn edge_values() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Float(f64::NAN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Float(-0.0),
            Value::Float(f64::MAX),
            Value::Float(5e-324),
            Value::Timestamp(i64::MIN),
            Value::Timestamp(i64::MAX),
            Value::Bytes(Vec::new()),
            Value::Bytes(vec![0x00, 0x7c, 0xff]),
            Value::Text(String::new()),
            Value::Text("\" \\ \n \u{1} |=:% \u{1F600} \u{10FFFF}".into()),
        ]
    }

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
    fn every_value_kind_round_trips_through_the_wire_text() {
        let mut args = Args::new();
        for (i, value) in edge_values().into_iter().enumerate() {
            args.set(format!("a{i:02}"), value);
        }
        args.set("\" \\ \n \u{1} |=:% \u{1F600}", "a name");
        let text = args.to_json().to_string();
        assert_eq!(exact(&from_text(&text).unwrap()), exact(&args), "{text}");

        assert_eq!(Args::new().to_json().to_string(), "{}");
        assert_eq!(from_text("{}").unwrap(), Args::new());
    }

    #[test]
    fn from_json_rejects_what_to_json_never_writes() {
        for text in [
            "[]",
            "\"a=s:x\"",
            "7",
            "null",
            "{\"a\":9223372036854775808}",
            "{\"a\":{\"zz\":\"00\"}}",
            "{\"a\":{\"float\":\"NaN\"}}",
            "{\"a\":{\"bytes\":\"0g\"}}",
            "{\"a\":[1]}",
            "[redacted]",
        ] {
            assert!(from_text(text).is_err(), "{text}");
        }
    }

    /// Arbitrary Unicode text: printable ASCII mixed with any scalar
    /// value.
    fn unicode(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
        let code_point = prop_oneof![0x20u32..0x7f, 0u32..0x11_0000];
        prop::collection::vec(code_point, len)
            .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
    }

    /// Any `Value`: every kind over its whole range, and the edges. The
    /// wire has one NaN, so every NaN bit pattern is drawn as it.
    fn value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (0..edge_values().len()).prop_map(|i| edge_values().swap_remove(i)),
            (0u8..2).prop_map(|b| Value::Bool(b == 1)),
            (i64::MIN..=i64::MAX).prop_map(Value::Int),
            (0u64..u64::MAX).prop_map(|bits| {
                let f = f64::from_bits(bits);
                Value::Float(if f.is_nan() { f64::NAN } else { f })
            }),
            (i64::MIN..=i64::MAX).prop_map(Value::Timestamp),
            prop::collection::vec(0u8..=255, 0..16).prop_map(Value::Bytes),
            unicode(0..20).prop_map(Value::Text),
        ]
    }

    proptest! {
        #[test]
        fn arbitrary_args_round_trip_through_the_wire_text(
            values in prop::collection::btree_map(unicode(0..8), value(), 0..8),
        ) {
            let mut args = Args::new();
            for (name, value) in values {
                args.set(name, value);
            }
            let text = args.to_json().to_string();
            prop_assert_eq!(exact(&from_text(&text).unwrap()), exact(&args), "{}", text);
        }
    }
}
