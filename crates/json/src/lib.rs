//! thermorl-json: the workspace's one JSON codec.
//!
//! Campaign checkpoints, serve snapshots, wire messages, telemetry
//! exports and BENCH files are all JSON, and all of it is written and
//! read here. The workspace builds offline (no `serde_json`), so this
//! crate is the whole codec: a [`Value`] model, a writer, a parser and
//! typed field readers, with no dependencies, low enough in the crate
//! graph for every other crate (telemetry included) to use.
//!
//! Numbers are split into [`Value::UInt`] (exact `u64`, required for the
//! splitmix64-derived job seeds which exceed 2^53) and [`Value::Num`]
//! (`f64`, written in Rust's shortest round-trip form, so every finite
//! float survives write → parse bit for bit). Non-finite floats
//! round-trip as the strings `"inf"`, `"-inf"` and `"nan"`.
//!
//! Decoders read fields through [`Value::field`] and
//! [`Value::opt_field`], whose errors all name the field:
//!
//! ```
//! use thermorl_json::{JsonError, Value};
//!
//! let v = Value::parse("{\"seq\": 7, \"values\": [1, 2.5], \"trace\": null}").unwrap();
//! let seq: u64 = v.field("seq")?;
//! let values: Vec<f64> = v.field("values")?;
//! let trace: Option<&str> = v.opt_field("trace")?;
//! assert_eq!((seq, values, trace), (7, vec![1.0, 2.5], None));
//! assert_eq!(
//!     v.field::<&str>("die").unwrap_err().0,
//!     "missing or invalid string field \"die\""
//! );
//! # Ok::<(), JsonError>(())
//! ```

use std::fmt::{self, Write as _};

/// A JSON value with deterministic (insertion-ordered) objects.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An exact unsigned integer (job seeds need all 64 bits).
    UInt(u64),
    /// A double-precision number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved so output is deterministic.
    Obj(Vec<(String, Value)>),
}

/// Error produced by [`Value::parse`], the field readers and the typed
/// decoders built on them.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError(pub String);

impl JsonError {
    /// Builds an error from a message.
    pub fn new(msg: impl Into<String>) -> JsonError {
        JsonError(msg.into())
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Decoders that report errors as plain strings (the wire protocols, the
/// policy snapshots) take the bare message.
impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.0
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// A Rust type a JSON value can be read as: the targets of
/// [`Value::field`] and [`Value::opt_field`].
pub trait FromJson<'a>: Sized {
    /// The JSON type the field error names.
    const KIND: &'static str;

    /// Reads `v` as `Self`, or `None` when it holds something else.
    fn from_json(v: &'a Value) -> Option<Self>;
}

impl<'a> FromJson<'a> for u64 {
    const KIND: &'static str = "integer";
    fn from_json(v: &'a Value) -> Option<u64> {
        v.as_u64()
    }
}

impl<'a> FromJson<'a> for usize {
    const KIND: &'static str = "integer";
    fn from_json(v: &'a Value) -> Option<usize> {
        v.as_u64().and_then(|u| usize::try_from(u).ok())
    }
}

impl<'a> FromJson<'a> for f64 {
    const KIND: &'static str = "float";
    fn from_json(v: &'a Value) -> Option<f64> {
        v.as_f64()
    }
}

impl<'a> FromJson<'a> for bool {
    const KIND: &'static str = "bool";
    fn from_json(v: &'a Value) -> Option<bool> {
        v.as_bool()
    }
}

impl<'a> FromJson<'a> for &'a str {
    const KIND: &'static str = "string";
    fn from_json(v: &'a Value) -> Option<&'a str> {
        v.as_str()
    }
}

impl<'a> FromJson<'a> for String {
    const KIND: &'static str = "string";
    fn from_json(v: &'a Value) -> Option<String> {
        v.as_str().map(str::to_string)
    }
}

/// Any value: the field only has to be present.
impl<'a> FromJson<'a> for &'a Value {
    const KIND: &'static str = "value";
    fn from_json(v: &'a Value) -> Option<&'a Value> {
        Some(v)
    }
}

impl<'a> FromJson<'a> for &'a [Value] {
    const KIND: &'static str = "array";
    fn from_json(v: &'a Value) -> Option<&'a [Value]> {
        v.as_array()
    }
}

/// An array whose every element reads as `T`.
impl<'a, T: FromJson<'a>> FromJson<'a> for Vec<T> {
    const KIND: &'static str = "array";
    fn from_json(v: &'a Value) -> Option<Vec<T>> {
        v.as_array()?.iter().map(T::from_json).collect()
    }
}

fn bad_field<'a, T: FromJson<'a>>(name: &str) -> JsonError {
    JsonError(format!("missing or invalid {} field {name:?}", T::KIND))
}

impl From<f64> for Value {
    /// [`Value::num`]: non-finite floats become strings.
    fn from(v: f64) -> Value {
        Value::num(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::UInt(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::UInt(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl<T: Copy + Into<Value>> From<&[T]> for Value {
    fn from(values: &[T]) -> Value {
        Value::Arr(values.iter().map(|&v| v.into()).collect())
    }
}

impl Value {
    /// An empty object.
    pub fn object() -> Value {
        Value::Obj(Vec::new())
    }

    /// Appends a field to an object value (panics on non-objects).
    pub fn set(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        match self {
            Value::Obj(fields) => fields.push((key.to_string(), value.into())),
            _ => panic!("Value::set on non-object"),
        }
        self
    }

    /// Looks up an object field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Reads required field `name` as a `T`.
    ///
    /// # Errors
    ///
    /// `missing or invalid <kind> field "<name>"` when the field is
    /// absent or does not read as a `T` (for a `Vec<T>`, when any
    /// element does not).
    pub fn field<'a, T: FromJson<'a>>(&'a self, name: &str) -> Result<T, JsonError> {
        self.get(name)
            .and_then(T::from_json)
            .ok_or_else(|| bad_field::<T>(name))
    }

    /// Reads optional field `name` as a `T`: `None` when it is absent or
    /// `null`.
    ///
    /// # Errors
    ///
    /// The [`Value::field`] error when the field holds anything else
    /// that does not read as a `T`.
    pub fn opt_field<'a, T: FromJson<'a>>(&'a self, name: &str) -> Result<Option<T>, JsonError> {
        match self.get(name) {
            None | Some(Value::Null) => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .ok_or_else(|| bad_field::<T>(name)),
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an exact `u64`, if representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::UInt(u) => Some(*u),
            // `u64::MAX as f64` rounds up to 2^64, the first float past
            // the range, so the bound is strict.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen; `"inf"`/`"nan"` strings map
    /// to their float meanings).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            Value::UInt(u) => Some(*u as f64),
            Value::Str(s) => match s.as_str() {
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                "nan" => Some(f64::NAN),
                _ => None,
            },
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A float value; encodes non-finite floats as strings.
    pub fn num(v: f64) -> Value {
        if v.is_finite() {
            Value::Num(v)
        } else if v.is_nan() {
            Value::Str("nan".into())
        } else if v > 0.0 {
            Value::Str("inf".into())
        } else {
            Value::Str("-inf".into())
        }
    }

    /// Renders compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    /// Appends compact JSON to `out`. Numbers and escapes are formatted
    /// in place: writing allocates nothing beyond `out`'s growth.
    pub fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Writing to a `String` cannot fail.
            Value::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            // `{:?}` is Rust's shortest round-trip float form and is valid
            // JSON for finite values. Non-finite floats should have been
            // routed through `Value::num`; degrade to null rather than emit
            // bad JSON.
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n:?}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_escaped(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (trailing whitespace allowed). Arrays and
    /// objects nested more than [`MAX_DEPTH`] deep are an error, so no
    /// input can exhaust the parsing thread's stack.
    pub fn parse(text: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// Writes `s` as a quoted JSON string, copying each run of characters
/// that need no escape in one piece.
fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` and `i + 1` are char
        // boundaries.
        out.push_str(&s[run..i]);
        if escape.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(escape);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, and every document this workspace writes
/// nests fewer than ten levels deep.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    /// `text` as bytes; `pos` indexes both and always sits on a char
    /// boundary between tokens.
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if b" \t\r\n".contains(b) {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                other => return err(format!("expected ',' or ']' , found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                other => return err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run up to the next quote or backslash in
            // one piece. Both are ASCII, so the run ends on a char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or_else(|| JsonError("unterminated string".into()))?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            if self.bytes[self.pos] == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1; // the backslash
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
                    let c = self
                        .text
                        .get(self.pos + 1..self.pos + 5)
                        .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| JsonError(format!("bad \\u escape at byte {}", self.pos)))?;
                    out.push(c);
                    self.pos += 4;
                }
                other => return err(format!("bad escape {other:?}")),
            }
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if !is_float && !text.starts_with('-') {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::UInt(u));
            }
        }
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|e| JsonError(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_readers_name_the_field_and_its_kind() {
        let v = Value::parse(
            "{\"n\":3,\"x\":-2.5,\"s\":\"hi\",\"b\":true,\"a\":[1,2],\"z\":null,\"bad\":[1,\"x\"]}",
        )
        .expect("parse");
        assert_eq!(v.field::<u64>("n"), Ok(3));
        assert_eq!(v.field::<usize>("n"), Ok(3));
        assert_eq!(v.field::<f64>("n"), Ok(3.0));
        assert_eq!(v.field::<f64>("x"), Ok(-2.5));
        assert_eq!(v.field::<&str>("s"), Ok("hi"));
        assert_eq!(v.field::<String>("s"), Ok("hi".to_string()));
        assert_eq!(v.field::<bool>("b"), Ok(true));
        assert_eq!(v.field::<Vec<u64>>("a"), Ok(vec![1, 2]));
        assert_eq!(v.field::<&[Value]>("a").map(<[Value]>::len), Ok(2));
        assert_eq!(v.field::<&Value>("z"), Ok(&Value::Null));
        for (got, want) in [
            (v.field::<u64>("x").unwrap_err(), "integer field \"x\""),
            (
                v.field::<u64>("missing").unwrap_err(),
                "integer field \"missing\"",
            ),
            (v.field::<f64>("s").unwrap_err(), "float field \"s\""),
            (v.field::<&str>("n").unwrap_err(), "string field \"n\""),
            (v.field::<bool>("z").unwrap_err(), "bool field \"z\""),
            (
                v.field::<Vec<f64>>("bad").unwrap_err(),
                "array field \"bad\"",
            ),
        ] {
            assert_eq!(got.0, format!("missing or invalid {want}"));
        }
        // Optional fields: absent and null read as None, a mistyped value
        // is still an error.
        assert_eq!(v.opt_field::<u64>("n"), Ok(Some(3)));
        assert_eq!(v.opt_field::<u64>("missing"), Ok(None));
        assert_eq!(v.opt_field::<Vec<f64>>("z"), Ok(None));
        assert!(v.opt_field::<u64>("s").is_err());
        // Non-objects have no fields.
        assert!(Value::UInt(1).field::<u64>("n").is_err());
        assert_eq!(Value::Null.opt_field::<u64>("n"), Ok(None));
    }

    #[test]
    fn as_u64_reads_only_exact_in_range_integers() {
        for (text, want) in [
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("1.8446744073709552e19", None),
            ("18446744073709549568.0", Some(u64::MAX - 2047)),
            ("-0.0", Some(0)),
            ("-1", None),
            ("1.5", None),
            ("1e400", None),
        ] {
            let v = Value::parse(text).expect(text);
            assert_eq!(v.as_u64(), want, "{text} parsed as {v:?}");
            let doc = Value::parse(&format!("{{\"seed\":{text}}}")).expect(text);
            assert_eq!(doc.field::<u64>("seed").ok(), want, "seed {text}");
        }
    }

    #[test]
    fn conversions_build_the_canonical_values() {
        let mut v = Value::object();
        v.set("f", 0.5)
            .set("nan", f64::NAN)
            .set("u", u64::MAX)
            .set("z", 7usize)
            .set("b", false)
            .set("s", "a\"b")
            .set("o", String::from("o"))
            .set("fs", &[1.0, f64::NEG_INFINITY][..])
            .set("us", &[3usize, 4][..]);
        assert_eq!(
            v.to_json(),
            "{\"f\":0.5,\"nan\":\"nan\",\"u\":18446744073709551615,\"z\":7,\"b\":false,\
             \"s\":\"a\\\"b\",\"o\":\"o\",\"fs\":[1.0,\"-inf\"],\"us\":[3,4]}"
        );
    }

    /// A reference writer that formats every number and escape into a
    /// `String` of its own.
    fn reference_json(v: &Value) -> String {
        fn escaped(s: &str) -> String {
            let mut out = String::from("\"");
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out + "\""
        }
        match v {
            Value::Null => "null".into(),
            Value::Bool(b) => b.to_string(),
            Value::UInt(u) => u.to_string(),
            Value::Num(n) if n.is_finite() => format!("{n:?}"),
            Value::Num(_) => "null".into(),
            Value::Str(s) => escaped(s),
            Value::Arr(items) => {
                let items: Vec<String> = items.iter().map(reference_json).collect();
                format!("[{}]", items.join(","))
            }
            Value::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("{}:{}", escaped(k), reference_json(v)))
                    .collect();
                format!("{{{}}}", fields.join(","))
            }
        }
    }

    /// Characters a string may hold that its encoding must escape or
    /// carry through as multi-byte UTF-8.
    const STRINGISH: [char; 12] = [
        'a',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{1}',
        '\u{1f}',
        'é',
        '€',
        '\u{1F600}',
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(1024))]

        /// In-place formatting writes the same bytes as the allocating
        /// reference, for any mix of floats, integers and strings.
        #[test]
        fn writer_matches_the_allocating_reference(
            float_bits in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..8),
            uints in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..8),
            picks in proptest::collection::vec(0usize..STRINGISH.len(), 0..24),
        ) {
            let text: String = picks.iter().map(|&i| STRINGISH[i]).collect();
            let mut v = Value::object();
            // Raw bits reach every magnitude, subnormals and non-finite
            // values included.
            let floats = float_bits.iter().map(|&b| Value::Num(f64::from_bits(b))).collect();
            v.set(&text, Value::Arr(floats))
                .set("u", &uints[..])
                .set("s", text.as_str())
                .set("n", Value::Null);
            proptest::prop_assert_eq!(v.to_json(), reference_json(&v));
        }
    }
}
