//! The workspace's one JSON codec: a [`Value`] tree, a writer, a
//! recursive-descent parser, and the [`Json`] trait that maps each field
//! type to its JSON form. Every report and bench artifact is a
//! [`json_record!`](crate::json_record) field table over this trait, so
//! the rules below are the rules of every JSON file the workspace writes
//! or reads.
//!
//! The build environment has no crates.io access, so `serde_json` is not
//! available; this module implements the small, exact subset the
//! workspace needs.
//!
//! # Rules
//!
//! - **Records.** A record is a JSON object keyed by its Rust field names;
//!   where a name and a key would differ, the field is renamed, never the
//!   key. Objects are written with sorted keys (so output bytes are
//!   deterministic), and keys a record does not know are ignored on read.
//! - **Integers** (`u64`, `usize`) are kept apart from floats and
//!   round-trip exactly, which matters for execution fingerprints.
//! - **Floats** (`f64`) are written in Rust's shortest round-trip form.
//!   JSON has no non-finite numbers, so NaN, +∞ and −∞ are written as the
//!   strings `"NaN"`, `"inf"` and `"-inf"` (the rule the telemetry trace
//!   uses too). An `f64` slot reads any number (integers widen) or exactly
//!   one of those three strings; any other string is an error.
//! - **`Option<T>`** writes `None` as `null`. On read, an absent key and
//!   `null` both decode to `None`; a present value must decode as `T`.
//! - **`Vec<T>`** is an array; an empty array stays distinct from an
//!   absent `Option<Vec<T>>`.
//! - **Every other field is required.** A missing key, or a present value
//!   of the wrong type, is a [`DecodeError::Field`] that names the field
//!   (the innermost one, for nested records). A record decodes its fields
//!   in declaration order and reports the first failure.
//! - Logic specific to one type (a derived key it writes, a value it
//!   rejects) is declared next to that type, through the `extra` and
//!   `check` clauses of [`json_record!`](crate::json_record).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    U64(u64),
    /// A negative integer that fits `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are ordered for deterministic output.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member lookup on objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Self::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `f64` (integers widen).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Self::U64(v) => Some(v as f64),
            Self::I64(v) => Some(v as f64),
            Self::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|v| usize::try_from(v).ok())
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Self::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises compactly.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serialises with two-space indentation.
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Self::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Self::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Self::F64(v) => {
                if v.is_finite() {
                    // `{:?}` is Rust's shortest round-trip float formatting.
                    let _ = write!(out, "{v:?}");
                } else {
                    write_escaped(out, non_finite_label(*v));
                }
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '[',
                    ']',
                    items.iter(),
                    |out, item, d| {
                        item.write(out, indent, d);
                    },
                );
            }
            Self::Obj(map) => {
                write_seq(
                    out,
                    indent,
                    depth,
                    '{',
                    '}',
                    map.iter(),
                    |out, (k, v), d| {
                        write_escaped(out, k);
                        out.push(':');
                        if indent.is_some() {
                            out.push(' ');
                        }
                        v.write(out, indent, d);
                    },
                );
            }
        }
    }
}

fn write_seq<T>(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    items: impl ExactSizeIterator<Item = T>,
    mut write_item: impl FnMut(&mut String, T, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(width) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(width * depth));
        }
    }
    out.push(close);
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed input or trailing garbage.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
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
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let Some(&b) = rest.first() else {
                return Err(self.err("unterminated string"));
            };
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by this
                            // writer; map lone surrogates to the
                            // replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let ch = s.chars().next().expect("non-empty checked above");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::I64(v));
            }
        }
        text.parse::<f64>().map(Value::F64).map_err(|_| ParseError {
            offset: start,
            message: format!("invalid number `{text}`"),
        })
    }
}

/// Error decoding a report from JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeError {
    /// The text is not valid JSON.
    Parse(ParseError),
    /// A field is missing or has the wrong type.
    Field {
        /// Field name.
        field: &'static str,
        /// What was expected.
        expected: &'static str,
    },
}

impl DecodeError {
    pub(crate) fn field(field: &'static str, expected: &'static str) -> Self {
        Self::Field { field, expected }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => e.fmt(f),
            Self::Field { field, expected } => {
                write!(f, "report field `{field}`: {expected}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl From<ParseError> for DecodeError {
    fn from(e: ParseError) -> Self {
        Self::Parse(e)
    }
}

/// A type with a JSON form: the one mapping from a field's Rust type to
/// JSON, implemented for the scalar field types, `Option<T>`, `Vec<T>`
/// and (through [`json_record!`](crate::json_record)) every record.
pub trait Json: Sized {
    /// The JSON form of `self`.
    fn to_value(&self) -> Value;

    /// Decodes the value stored under `key` (`None`: the key is absent).
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Field`] naming `key` when the value is
    /// missing or mistyped, or the error of a nested record's own field.
    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError>;
}

/// Decodes a required value through `get`, naming `key` on failure.
fn required<'v, T>(
    value: Option<&'v Value>,
    key: &'static str,
    expected: &'static str,
    get: impl FnOnce(&'v Value) -> Option<T>,
) -> Result<T, DecodeError> {
    get(value.ok_or(DecodeError::field(key, "missing"))?).ok_or(DecodeError::field(key, expected))
}

/// The object stored under `key` — the first step of every record's
/// decode in [`json_record!`](crate::json_record).
///
/// # Errors
///
/// Returns [`DecodeError::Field`] naming `key` when the value is missing
/// or not an object.
pub fn object<'v>(
    value: Option<&'v Value>,
    key: &'static str,
) -> Result<&'v BTreeMap<String, Value>, DecodeError> {
    required(value, key, "expected object", |v| match v {
        Value::Obj(map) => Some(map),
        _ => None,
    })
}

impl Json for u64 {
    fn to_value(&self) -> Value {
        Value::U64(*self)
    }

    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError> {
        required(value, key, "expected integer", Value::as_u64)
    }
}

impl Json for usize {
    fn to_value(&self) -> Value {
        Value::U64(*self as u64)
    }

    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError> {
        required(value, key, "expected integer", Value::as_usize)
    }
}

/// The string standing in for a non-finite float (see the module rules).
fn non_finite_label(v: f64) -> &'static str {
    if v.is_nan() {
        "NaN"
    } else if v > 0.0 {
        "inf"
    } else {
        "-inf"
    }
}

impl Json for f64 {
    fn to_value(&self) -> Value {
        if self.is_finite() {
            Value::F64(*self)
        } else {
            Value::Str(non_finite_label(*self).to_string())
        }
    }

    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError> {
        required(value, key, "expected number", |v| match v.as_str() {
            Some("NaN") => Some(f64::NAN),
            Some("inf") => Some(f64::INFINITY),
            Some("-inf") => Some(f64::NEG_INFINITY),
            _ => v.as_f64(),
        })
    }
}

impl Json for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }

    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError> {
        required(value, key, "expected bool", Value::as_bool)
    }
}

impl Json for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }

    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError> {
        required(value, key, "expected string", |v| {
            v.as_str().map(str::to_string)
        })
    }
}

impl<T: Json> Json for Option<T> {
    fn to_value(&self) -> Value {
        self.as_ref().map_or(Value::Null, Json::to_value)
    }

    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError> {
        match value {
            None | Some(Value::Null) => Ok(None),
            Some(_) => T::from_field(value, key).map(Some),
        }
    }
}

impl<T: Json> Json for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(Json::to_value).collect())
    }

    fn from_field(value: Option<&Value>, key: &'static str) -> Result<Self, DecodeError> {
        required(value, key, "expected array", Value::as_arr)?
            .iter()
            .map(|item| T::from_field(Some(item), key))
            .collect()
    }
}

/// Declares a record: a struct whose JSON form is an object keyed by its
/// field names. The one field list derives both directions — the [`Json`]
/// impl plus the inherent `to_value`, `to_json`, `to_json_pretty`,
/// `from_value` and `from_json` — under the [module rules](crate::json#rules).
///
/// Two optional clauses after the struct keep logic specific to one type
/// next to it:
///
/// - `extra = path;` names a `fn(&Self, &mut BTreeMap<String, Value>)`
///   that writes derived keys after the fields (ignored on read);
/// - `check = path;` names a `fn(&Self) -> Result<(), DecodeError>` that
///   every decoded value must pass.
///
/// ```
/// asgd_driver::json_record! {
///     /// One sample.
///     #[derive(Debug, PartialEq)]
///     pub struct Sample {
///         /// Update count.
///         pub index: u64,
///         /// Squared distance, when measured.
///         pub dist_sq: Option<f64>,
///     }
/// }
///
/// let sample = Sample { index: 3, dist_sq: Some(f64::INFINITY) };
/// assert_eq!(sample.to_json(), r#"{"dist_sq":"inf","index":3}"#);
/// assert_eq!(Sample::from_json(&sample.to_json()).unwrap(), sample);
/// let err = Sample::from_json(r#"{"index":"3"}"#).unwrap_err();
/// assert_eq!(err.to_string(), "report field `index`: expected integer");
/// ```
#[macro_export]
macro_rules! json_record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$field_meta:meta])* $field_vis:vis $field:ident : $ty:ty ),* $(,)?
        }
        $( extra = $extra:path ; )?
        $( check = $check:path ; )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: $ty, )*
        }

        impl $crate::json::Json for $name {
            fn to_value(&self) -> $crate::json::Value {
                let mut object = ::std::collections::BTreeMap::new();
                $(
                    object.insert(
                        stringify!($field).to_string(),
                        $crate::json::Json::to_value(&self.$field),
                    );
                )*
                $( $extra(self, &mut object); )?
                $crate::json::Value::Obj(object)
            }

            fn from_field(
                value: ::core::option::Option<&$crate::json::Value>,
                key: &'static str,
            ) -> ::core::result::Result<Self, $crate::json::DecodeError> {
                let object = $crate::json::object(value, key)?;
                let decoded = Self {
                    $(
                        $field: $crate::json::Json::from_field(
                            object.get(stringify!($field)),
                            stringify!($field),
                        )?,
                    )*
                };
                $( $check(&decoded)?; )?
                Ok(decoded)
            }
        }

        // Every record gets the same surface; a given type may not use all of it.
        #[allow(dead_code)]
        impl $name {
            /// Converts into the JSON value tree.
            #[must_use]
            pub fn to_value(&self) -> $crate::json::Value {
                $crate::json::Json::to_value(self)
            }

            /// Serialises to compact JSON.
            #[must_use]
            pub fn to_json(&self) -> String {
                self.to_value().to_json()
            }

            /// Serialises to pretty-printed JSON.
            #[must_use]
            pub fn to_json_pretty(&self) -> String {
                self.to_value().to_json_pretty()
            }

            /// Decodes from a JSON value tree.
            ///
            /// # Errors
            ///
            /// Returns a `DecodeError` naming the first missing or
            /// mistyped field.
            pub fn from_value(
                value: &$crate::json::Value,
            ) -> ::core::result::Result<Self, $crate::json::DecodeError> {
                <Self as $crate::json::Json>::from_field(Some(value), stringify!($name))
            }

            /// Parses from JSON text.
            ///
            /// # Errors
            ///
            /// Returns a `DecodeError` on malformed JSON or on a missing
            /// or mistyped field.
            pub fn from_json(text: &str) -> ::core::result::Result<Self, $crate::json::DecodeError> {
                Self::from_value(&$crate::json::parse(text)?)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn obj<const N: usize>(pairs: [(&str, Value); N]) -> Value {
        Value::Obj(pairs.map(|(k, v)| (k.to_string(), v)).into())
    }

    #[test]
    fn round_trips_exact_integers() {
        let v = obj([
            ("fingerprint", Value::U64(u64::MAX)),
            ("neg", Value::I64(-42)),
            ("pi", Value::F64(0.1)),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text).unwrap(), v);
        assert!(text.contains(&u64::MAX.to_string()));
    }

    #[test]
    fn round_trips_nested_structures() {
        let v = obj([
            (
                "arr",
                Value::Arr(vec![Value::U64(1), Value::Null, Value::Bool(true)]),
            ),
            ("s", Value::Str("line\n\"quote\" \\ tab\t".to_string())),
            ("empty_arr", Value::Arr(vec![])),
            ("empty_obj", Value::Obj(Default::default())),
        ]);
        assert_eq!(parse(&v.to_json()).unwrap(), v);
        assert_eq!(parse(&v.to_json_pretty()).unwrap(), v);
    }

    #[test]
    fn floats_round_trip_shortest() {
        for f in [0.1, -2.5e-9, 1.0 / 3.0, f64::MAX, 5e-324] {
            let text = Value::F64(f).to_json();
            let Value::F64(back) = parse(&text).unwrap() else {
                panic!("expected float from {text}");
            };
            assert_eq!(back.to_bits(), f.to_bits(), "{text}");
        }
    }

    #[test]
    fn non_finite_floats_become_strings() {
        for (f, text) in [
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"inf\""),
            (f64::NEG_INFINITY, "\"-inf\""),
        ] {
            assert_eq!(f.to_value().to_json(), text);
            assert_eq!(Value::F64(f).to_json(), text, "never an invalid number");
            let back = f64::from_field(Some(&parse(text).unwrap()), "x").unwrap();
            assert_eq!(back.to_value().to_json(), text);
        }
        // Only those three strings stand in for floats; null is no float.
        for bad in ["\"soon\"", "\"nan\"", "\"Infinity\"", "null"] {
            let err = f64::from_field(Some(&parse(bad).unwrap()), "x").unwrap_err();
            assert_eq!(err, DecodeError::field("x", "expected number"), "{bad}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"a": 3, "b": "x", "c": [1, 2], "d": true, "e": -1.5}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("a").and_then(Value::as_usize), Some(3));
        assert_eq!(v.get("b").and_then(Value::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(Value::as_arr).map(<[Value]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(Value::as_bool), Some(true));
        assert_eq!(v.get("e").and_then(Value::as_f64), Some(-1.5));
        assert!(v.get("missing").is_none());
    }

    crate::json_record! {
        #[derive(Debug, Clone)]
        struct Inner {
            id: u64,
            weight: f64,
        }
    }

    crate::json_record! {
        /// One field of every kind the codec maps.
        #[derive(Debug, Clone)]
        struct Every {
            count: u64,
            size: usize,
            value: f64,
            flag: bool,
            label: String,
            maybe: Option<f64>,
            values: Vec<f64>,
            samples: Option<Vec<Inner>>,
            inner: Inner,
        }
    }

    /// Every bit pattern (subnormals, NaN payloads, ±inf) plus the specials
    /// drawn often enough to matter.
    fn float() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            -1e3..1e3,
        ]
    }

    fn inner() -> impl Strategy<Value = Inner> {
        (any::<u64>(), float()).prop_map(|(id, weight)| Inner { id, weight })
    }

    fn set(v: &mut Value, key: &str, to: Value) {
        if let Value::Obj(map) = v {
            map.insert(key.to_string(), to);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_field_kind_round_trips_byte_identically(
            count in prop_oneof![Just(u64::MAX), Just(0), any::<u64>()],
            size in any::<usize>(),
            value in float(),
            flag in any::<bool>(),
            label in prop_oneof![
                Just(String::new()),
                Just("NaN".to_string()),
                Just("quote \" backslash \\ newline \n tab \t \u{1}".to_string()),
            ],
            maybe in prop_oneof![Just(None), float().prop_map(Some)],
            values in proptest::collection::vec(float(), 0..4),
            samples in prop_oneof![
                Just(None),
                proptest::collection::vec(inner(), 0..3).prop_map(Some),
            ],
            inner in inner(),
        ) {
            let every = Every { count, size, value, flag, label, maybe, values, samples, inner };
            for text in [every.to_json(), every.to_json_pretty()] {
                let back = Every::from_json(&text).expect("decodes");
                prop_assert_eq!(back.to_json(), every.to_json());
            }

            // An absent optional reads as `null` does: `None`.
            let mut v = every.to_value();
            set(&mut v, "maybe", Value::Null);
            let with_null = Every::from_value(&v).expect("null option");
            if let Value::Obj(map) = &mut v {
                map.remove("maybe");
            }
            let absent = Every::from_value(&v).expect("absent option");
            prop_assert!(with_null.maybe.is_none() && absent.maybe.is_none());
            prop_assert_eq!(absent.to_json(), with_null.to_json());
            // An empty list stays distinct from an absent one.
            set(&mut v, "samples", Value::Arr(Vec::new()));
            prop_assert_eq!(Every::from_value(&v).unwrap().samples.map(|s| s.len()), Some(0));

            // A present but mistyped field (optional or not) is an error
            // naming it, as is a mistyped field of a nested record.
            let keys: Vec<String> = match every.to_value() {
                Value::Obj(map) => map.into_keys().collect(),
                _ => unreachable!("records are objects"),
            };
            for key in &keys {
                let mut v = every.to_value();
                let wrong = if key == "label" { Value::U64(1) } else { Value::Str("x".into()) };
                set(&mut v, key, wrong);
                let err = Every::from_value(&v).unwrap_err().to_string();
                prop_assert!(err.contains(&format!("`{key}`")), "{key}: {err}");
            }
            let mut v = every.to_value();
            let mut nested = every.inner.to_value();
            set(&mut nested, "weight", Value::Bool(true));
            set(&mut v, "inner", nested);
            let err = Every::from_value(&v).unwrap_err().to_string();
            prop_assert!(err.contains("`weight`"), "{err}");
        }
    }
}
