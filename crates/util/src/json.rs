//! Minimal JSON value, writer, parser, and derive-free serialization
//! traits.
//!
//! Replaces `serde`/`serde_json` for the workspace's artifact formats
//! (network descriptions, schedule specs, execution histories, CLI
//! artifacts). The wire format is serde-compatible so artifacts written by
//! earlier builds still parse:
//!
//! * structs → objects with the field names, in declaration order;
//! * newtype ids → their inner number, transparently;
//! * enums → externally tagged (`"Unit"` or `{"Variant": {...}}`);
//! * maps with numeric keys → objects with stringified keys;
//! * `Option` → `null` or the inner value;
//! * non-integral floats via `{:?}` (shortest round-trip, `99.0` not `99`).
//!
//! Types opt in by implementing [`ToJson`]/[`FromJson`], usually via the
//! [`json_struct!`](crate::json_struct) / [`json_newtype!`](crate::json_newtype)
//! macros, which expand inside the defining module and therefore reach
//! private fields.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON document.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map): the
/// writer emits fields in the order a struct declares them, which keeps
/// artifacts diffable.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

/// A serialization or deserialization failure, with a human-readable path
/// hint where available.
#[derive(Clone, Debug, PartialEq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// Prefixes the message with a field/element context.
    pub fn in_context(self, ctx: &str) -> Self {
        JsonError { msg: format!("{}: {}", ctx, self.msg) }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Member lookup; `None` when `self` is not an object or lacks `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable member lookup.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        match self {
            Value::Object(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int(i) => Some(i),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Int(i) if i >= 0 => Some(i as u64),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int(i) => Some(i as f64),
            Value::Float(f) => Some(f),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Value>> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Compact serialization of this value.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        write_compact(self, &mut out);
        out
    }

    /// Pretty serialization (two-space indent).
    pub fn to_json_string_pretty(&self) -> String {
        let mut out = String::new();
        write_pretty(self, 0, &mut out);
        out
    }
}

impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or_else(|| panic!("no member {key:?} in {self:?}"))
    }
}

impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        match self.get_mut(key) {
            Some(v) => v,
            None => panic!("no member {key:?}"),
        }
    }
}

impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, idx: usize) -> &Value {
        match self {
            Value::Array(a) => &a[idx],
            other => panic!("cannot index {other:?} with {idx}"),
        }
    }
}

impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, idx: usize) -> &mut Value {
        match self {
            Value::Array(a) => &mut a[idx],
            other => panic!("cannot index {other:?} with {idx}"),
        }
    }
}

macro_rules! impl_value_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Value {
                Value::Int(v as i64)
            }
        }
    )*};
}

impl_value_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
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

/// Conversion into a JSON [`Value`].
pub trait ToJson {
    fn to_json(&self) -> Value;
}

/// Conversion from a JSON [`Value`].
pub trait FromJson: Sized {
    fn from_json(v: &Value) -> Result<Self, JsonError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::Int(*self as i64)
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Value) -> Result<Self, JsonError> {
                match *v {
                    Value::Int(i) => <$t>::try_from(i).map_err(|_| {
                        JsonError::new(format!(
                            "integer {i} out of range for {}",
                            stringify!($t)
                        ))
                    }),
                    ref other => Err(JsonError::new(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Value {
        Value::Float(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_f64().ok_or_else(|| JsonError::new(format!("expected number, found {v:?}")))
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        v.as_bool().ok_or_else(|| JsonError::new(format!("expected bool, found {v:?}")))
    }
}

impl ToJson for String {
    fn to_json(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(JsonError::new(format!("expected string, found {other:?}"))),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Value {
        match self {
            Some(v) => v.to_json(),
            None => Value::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, item)| T::from_json(item).map_err(|e| e.in_context(&format!("[{i}]"))))
                .collect(),
            other => Err(JsonError::new(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: ToJson> ToJson for &T {
    fn to_json(&self) -> Value {
        (**self).to_json()
    }
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl FromJson for Value {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        Ok(v.clone())
    }
}

/// Types usable as `BTreeMap` keys in JSON objects (serialized as member
/// names, like serde's integer-keyed maps).
pub trait JsonMapKey: Sized + Ord {
    fn to_key(&self) -> String;
    fn from_key(s: &str) -> Result<Self, JsonError>;
}

impl JsonMapKey for usize {
    fn to_key(&self) -> String {
        self.to_string()
    }

    fn from_key(s: &str) -> Result<Self, JsonError> {
        s.parse().map_err(|_| JsonError::new(format!("invalid integer key {s:?}")))
    }
}

impl JsonMapKey for u64 {
    fn to_key(&self) -> String {
        self.to_string()
    }

    fn from_key(s: &str) -> Result<Self, JsonError> {
        s.parse().map_err(|_| JsonError::new(format!("invalid integer key {s:?}")))
    }
}

impl JsonMapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }

    fn from_key(s: &str) -> Result<Self, JsonError> {
        Ok(s.to_string())
    }
}

impl<K: JsonMapKey, V: ToJson> ToJson for BTreeMap<K, V> {
    fn to_json(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.to_key(), v.to_json())).collect())
    }
}

impl<K: JsonMapKey, V: FromJson> FromJson for BTreeMap<K, V> {
    fn from_json(v: &Value) -> Result<Self, JsonError> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .map(|(k, v)| Ok((K::from_key(k)?, V::from_json(v).map_err(|e| e.in_context(k))?)))
                .collect(),
            other => Err(JsonError::new(format!("expected object, found {other:?}"))),
        }
    }
}

/// Looks up and deserializes a struct field, with the name attached to any
/// error. Missing fields deserialize as `Null` (so `Option` fields may be
/// omitted, matching serde's common `default` pattern for options).
pub fn field<T: FromJson>(v: &Value, name: &str) -> Result<T, JsonError> {
    match v {
        Value::Object(_) => {
            let member = v.get(name).unwrap_or(&Value::Null);
            if matches!(member, Value::Null) && v.get(name).is_none() {
                // Distinguish "absent" for better messages on non-Option types.
                T::from_json(&Value::Null)
                    .map_err(|_| JsonError::new(format!("missing field {name:?}")))
            } else {
                T::from_json(member).map_err(|e| e.in_context(name))
            }
        }
        other => {
            Err(JsonError::new(format!("expected object with field {name:?}, found {other:?}")))
        }
    }
}

// ---------------------------------------------------------------------------
// Top-level entry points
// ---------------------------------------------------------------------------

/// Serializes to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_json_string()
}

/// Serializes to a pretty JSON string (two-space indent).
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_json_string_pretty()
}

/// Converts any serializable value into a [`Value`] tree.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Value {
    value.to_json()
}

/// Reconstructs a value from a [`Value`] tree.
pub fn from_value<T: FromJson>(v: &Value) -> Result<T, JsonError> {
    T::from_json(v)
}

/// Parses a JSON document and deserializes it.
pub fn from_str<T: FromJson>(s: &str) -> Result<T, JsonError> {
    T::from_json(&parse(s)?)
}

/// Parses a JSON document into a [`Value`] tree.
pub fn parse(s: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(JsonError::new(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(f: f64, out: &mut String) {
    if f.is_finite() {
        // `{:?}` is the shortest representation that round-trips, and keeps
        // a ".0" on integral values — matching serde_json's output.
        out.push_str(&format!("{f:?}"));
    } else {
        // JSON has no NaN/inf; serde_json writes null.
        out.push_str("null");
    }
}

fn write_compact(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => out.push_str(&i.to_string()),
        Value::Float(f) => write_float(*f, out),
        Value::Str(s) => write_escaped(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(k, out);
                out.push(':');
                write_compact(val, out);
            }
            out.push('}');
        }
    }
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    let pad = |out: &mut String, n: usize| {
        for _ in 0..n {
            out.push_str("  ");
        }
    };
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            pad(out, indent);
            out.push(']');
        }
        Value::Object(fields) if !fields.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                pad(out, indent + 1);
                write_escaped(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            pad(out, indent);
            out.push('}');
        }
        other => write_compact(other, out),
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(JsonError::new(format!("expected {:?} at byte {}", b as char, self.pos)))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            None => Err(JsonError::new("unexpected end of input")),
            Some(b'n') => {
                if self.eat_literal("null") {
                    Ok(Value::Null)
                } else {
                    Err(JsonError::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b't') => {
                if self.eat_literal("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(JsonError::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b'f') => {
                if self.eat_literal("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(JsonError::new(format!("invalid token at byte {}", self.pos)))
                }
            }
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            Some(other) => Err(JsonError::new(format!(
                "unexpected character {:?} at byte {}",
                other as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => {
                    return Err(JsonError::new(format!("expected ',' or ']' at byte {}", self.pos)))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
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
                    return Ok(Value::Object(fields));
                }
                _ => {
                    return Err(JsonError::new(format!(
                        "expected ',' or '}}' at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(JsonError::new("unterminated string")),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            self.pos += 1;
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane characters.
                            let c = if (0xd800..0xdc00).contains(&cp) {
                                if !self.eat_literal("\\u") {
                                    return Err(JsonError::new("unpaired surrogate"));
                                }
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(JsonError::new("invalid low surrogate"));
                                }
                                let c = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(c)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| JsonError::new("invalid \\u escape"))?);
                            continue;
                        }
                        _ => return Err(JsonError::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance over one UTF-8 character.
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| JsonError::new("invalid UTF-8 in string"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(JsonError::new("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| JsonError::new("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| JsonError::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| JsonError::new(format!("invalid number {text:?}")))
        } else {
            text.parse::<i64>()
                .map(Value::Int)
                .map_err(|_| JsonError::new(format!("invalid number {text:?}")))
        }
    }
}

// ---------------------------------------------------------------------------
// Impl macros
// ---------------------------------------------------------------------------

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields,
/// serializing as an object in field order. Expand it inside the struct's
/// defining module so private fields are reachable:
///
/// ```
/// use cnet_util::json_struct;
///
/// struct Point {
///     x: i64,
///     y: i64,
/// }
///
/// json_struct!(Point { x, y });
///
/// let v = cnet_util::json::to_string(&Point { x: 1, y: 2 });
/// assert_eq!(v, r#"{"x":1,"y":2}"#);
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::Value::Object(vec![
                    $(
                        (
                            stringify!($field).to_string(),
                            $crate::json::ToJson::to_json(&self.$field),
                        ),
                    )+
                ])
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(
                v: &$crate::json::Value,
            ) -> Result<Self, $crate::json::JsonError> {
                Ok($name {
                    $($field: $crate::json::field(v, stringify!($field))?,)+
                })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a single-field tuple struct,
/// serializing transparently as the inner value (serde's newtype
/// convention — ids stay plain numbers on the wire).
///
/// ```
/// use cnet_util::json_newtype;
///
/// #[derive(Debug, PartialEq)]
/// struct TokenId(usize);
///
/// json_newtype!(TokenId: usize);
///
/// assert_eq!(cnet_util::json::to_string(&TokenId(7)), "7");
/// ```
#[macro_export]
macro_rules! json_newtype {
    ($name:ident: $inner:ty) => {
        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Value {
                $crate::json::ToJson::to_json(&self.0)
            }
        }

        impl $crate::json::FromJson for $name {
            fn from_json(v: &$crate::json::Value) -> Result<Self, $crate::json::JsonError> {
                <$inner as $crate::json::FromJson>::from_json(v).map($name)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for doc in ["null", "true", "false", "0", "-17", "42"] {
            assert_eq!(parse(doc).unwrap().to_json_string(), doc);
        }
        assert_eq!(parse("1.5").unwrap(), Value::Float(1.5));
        assert_eq!(Value::Float(99.0).to_json_string(), "99.0");
        assert_eq!(Value::Float(0.125).to_json_string(), "0.125");
        assert_eq!(parse("1e3").unwrap(), Value::Float(1000.0));
        assert_eq!(parse("-2.5e-2").unwrap(), Value::Float(-0.025));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = "a \"quote\" and \\ backslash\nand\ttabs \u{1F600} ok";
        let doc = Value::Str(s.to_string()).to_json_string();
        assert_eq!(parse(&doc).unwrap(), Value::Str(s.to_string()));
        assert_eq!(parse(r#""Aé😀""#).unwrap(), Value::Str("Aé😀".to_string()));
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let doc = r#"{"z":1,"a":[true,null,{"k":2.5}],"m":{}}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.to_json_string(), doc);
        assert_eq!(v["z"], Value::Int(1));
        assert_eq!(v["a"][2]["k"], Value::Float(2.5));
    }

    #[test]
    fn pretty_output_reparses_identically() {
        let doc = r#"{"family":"bitonic","w":4,"specs":[{"p":0,"t":[1.0,2.0]},{"p":1,"t":[]}]}"#;
        let v = parse(doc).unwrap();
        let pretty = v.to_json_string_pretty();
        assert!(pretty.contains("\n  \"family\": \"bitonic\""));
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for doc in ["{", "[1,", "{\"a\" 1}", "tru", "\"unterminated", "1 2", "", "{'a':1}"] {
            assert!(parse(doc).is_err(), "{doc:?} should not parse");
        }
    }

    #[test]
    fn typed_primitives_enforce_types() {
        assert_eq!(from_str::<u64>("5").unwrap(), 5);
        assert!(from_str::<u64>("-1").is_err());
        assert!(from_str::<u64>("\"5\"").is_err());
        assert!(from_str::<String>("3").is_err());
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<u32>>("9").unwrap(), Some(9));
        assert_eq!(from_str::<Vec<u8>>("[1,2,3]").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn maps_use_string_keys() {
        let mut m = BTreeMap::new();
        m.insert(3usize, vec![1.0f64]);
        m.insert(1usize, vec![]);
        let doc = to_string(&m);
        assert_eq!(doc, r#"{"1":[],"3":[1.0]}"#);
        let back: BTreeMap<usize, Vec<f64>> = from_str(&doc).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn struct_macro_round_trips_with_private_fields() {
        mod inner {
            pub struct Secret {
                a: u32,
                b: Option<f64>,
                c: Vec<String>,
            }

            crate::json_struct!(Secret { a, b, c });

            impl Secret {
                pub fn new() -> Self {
                    Secret { a: 7, b: None, c: vec!["x".into()] }
                }

                pub fn parts(&self) -> (u32, Option<f64>, &[String]) {
                    (self.a, self.b, &self.c)
                }
            }
        }

        let s = inner::Secret::new();
        let doc = to_string(&s);
        assert_eq!(doc, r#"{"a":7,"b":null,"c":["x"]}"#);
        let back: inner::Secret = from_str(&doc).unwrap();
        assert_eq!(back.parts(), s.parts());
        // Omitted Option fields read as None; omitted required fields fail.
        let partial: inner::Secret = from_str(r#"{"a":1,"c":[]}"#).unwrap();
        assert_eq!(partial.parts().1, None);
        assert!(from_str::<inner::Secret>(r#"{"b":1.0,"c":[]}"#).is_err());
    }

    #[test]
    fn newtype_macro_is_transparent() {
        #[derive(Debug, PartialEq)]
        struct Id(usize);
        json_newtype!(Id: usize);
        assert_eq!(to_string(&Id(12)), "12");
        assert_eq!(from_str::<Id>("12").unwrap(), Id(12));
        assert!(from_str::<Id>("\"12\"").is_err());
    }

    #[test]
    fn value_mutation_surface_works() {
        let mut v = parse(r#"{"steps":[{"time":1.0,"k":2}]}"#).unwrap();
        v["steps"].as_array_mut().unwrap()[0]["time"] = 99.0.into();
        let old = v["steps"][0]["k"].as_u64().unwrap();
        v["steps"][0]["k"] = (old + 4).into();
        assert_eq!(v.to_json_string(), r#"{"steps":[{"time":99.0,"k":6}]}"#);
        v["steps"].as_array_mut().unwrap().pop();
        assert_eq!(v.to_json_string(), r#"{"steps":[]}"#);
    }

    #[test]
    fn error_messages_name_the_path() {
        let err = from_str::<Vec<u64>>("[1,\"x\"]").unwrap_err();
        assert!(err.to_string().contains("[1]"), "{err}");
        #[derive(Debug)]
        struct S {
            n: u64,
        }
        json_struct!(S { n });
        let err = from_str::<S>(r#"{"n":"x"}"#).unwrap_err();
        assert!(err.to_string().contains('n'), "{err}");
        let err = from_str::<S>("{}").unwrap_err();
        assert!(err.to_string().contains("missing"), "{err}");
    }
}
