//! Minimal hand-rolled JSON serialization and parsing.
//!
//! The build container has no crates.io access, so `serde_json` is not
//! an option. The observability layer emits JSON through the value tree
//! below; the `bfs_server` query service additionally *reads*
//! newline-delimited JSON commands off its connections, covered by
//! [`JsonValue::parse`] (a small recursive-descent parser over the same
//! tree).
//!
//! Object keys keep **insertion order** (a `Vec` of pairs, not a map):
//! emitted reports are deterministic byte-for-byte, which the golden
//! schema test relies on.

use std::fmt::Write as _;

/// A JSON value tree.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (counters, ids).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float; non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// An empty object builder.
    pub fn object() -> JsonObject {
        JsonObject { fields: Vec::new() }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None);
        out
    }

    /// Render with 2-space indentation (human-readable reports).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Parse one JSON document (trailing whitespace allowed, nothing
    /// else after the value).
    ///
    /// # Errors
    /// Returns a human-readable message naming the byte offset of the
    /// first offending character.
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut pos = 0usize;
        let value = parse_value(input, &mut pos, 0)?;
        skip_ws(input.as_bytes(), &mut pos);
        if pos != input.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Field lookup on an object (`None` on other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one (non-negative
    /// `Int` included).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(x) => Some(*x),
            JsonValue::Int(x) if *x >= 0 => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Int(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Float(x) => {
                if x.is_finite() {
                    // `{:?}` keeps round-trip precision and always
                    // includes a decimal point or exponent.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_sep(out, indent);
                    item.write(out, indent.map(|d| d + 1));
                }
                write_close(out, indent);
                out.push(']');
            }
            JsonValue::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_sep(out, indent);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent.map(|d| d + 1));
                }
                write_close(out, indent);
                out.push('}');
            }
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        match b {
            b' ' | b'\t' | b'\n' | b'\r' => *pos += 1,
            _ => break,
        }
    }
}

fn expect_literal(
    bytes: &[u8],
    pos: &mut usize,
    lit: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

/// Deepest container nesting [`JsonValue::parse`] accepts. The parser
/// is recursive-descent, so without a cap a line of `[[[[…` as long as
/// a protocol request (64 KiB) would overflow the thread stack instead
/// of returning a typed error.
pub const MAX_PARSE_DEPTH: usize = 96;

fn parse_value(input: &str, pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    if depth >= MAX_PARSE_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_PARSE_DEPTH} at byte {pos}"
        ));
    }
    let bytes = input.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect_literal(bytes, pos, "null", JsonValue::Null),
        Some(b't') => expect_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'"') => parse_string(input, pos).map(JsonValue::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                items.push(parse_value(input, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(input, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected `:` at byte {pos}"));
                }
                *pos += 1;
                fields.push((key, parse_value(input, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        Some(&c) => Err(format!("unexpected byte `{}` at byte {pos}", c as char)),
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut float = false;
    while let Some(b) = bytes.get(*pos) {
        match b {
            b'0'..=b'9' => *pos += 1,
            b'.' | b'e' | b'E' | b'+' | b'-' => {
                float = true;
                *pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    if !float {
        if let Ok(x) = text.parse::<u64>() {
            return Ok(JsonValue::UInt(x));
        }
        if let Ok(x) = text.parse::<i64>() {
            return Ok(JsonValue::Int(x));
        }
    }
    text.parse::<f64>()
        .map(JsonValue::Float)
        .map_err(|_| format!("malformed number `{text}` at byte {start}"))
}

fn parse_string(input: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = input.as_bytes();
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy everything up to the next quote or backslash in one go:
        // both are ASCII, so the run ends on a char boundary of `input`.
        let run = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| "unterminated string".to_string())?;
        out.push_str(&input[*pos..*pos + run]);
        *pos += run;
        if bytes[*pos] == b'"' {
            *pos += 1;
            return Ok(out);
        }
        *pos += 1;
        match bytes.get(*pos) {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                // Exactly four ASCII hex digits (no sign, no shorter run).
                let code = bytes
                    .get(*pos + 1..*pos + 5)
                    .ok_or_else(|| format!("truncated \\u escape at byte {pos}"))?
                    .iter()
                    .try_fold(0u32, |code, &h| {
                        Some(code * 16 + char::from(h).to_digit(16)?)
                    })
                    .ok_or_else(|| format!("bad \\u escape at byte {pos}"))?;
                // Surrogates are not paired up — commands never carry
                // them; reject instead of mis-decoding.
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| format!("non-scalar \\u escape at byte {pos}"))?,
                );
                *pos += 4;
            }
            _ => return Err(format!("bad escape at byte {pos}")),
        }
        *pos += 1;
    }
}

fn write_sep(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..=depth {
            out.push_str("  ");
        }
    }
}

fn write_close(out: &mut String, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
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

/// Fluent insertion-ordered object builder.
#[derive(Clone, Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// Append a field (keys are kept in insertion order).
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.fields.push((key.to_string(), value.into()));
        self
    }

    /// Finish into a [`JsonValue::Object`].
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.fields)
    }
}

impl From<JsonObject> for JsonValue {
    fn from(o: JsonObject) -> JsonValue {
        o.build()
    }
}

/// Types that can serialize themselves into a [`JsonValue`].
pub trait ToJson {
    /// Convert into a JSON value tree.
    fn to_json(&self) -> JsonValue;
}

/// A scalar converts `Into<JsonValue>` (for the object builder) and
/// renders through [`ToJson`] (for `json_record!` fields) alike.
macro_rules! scalar {
    ($($t:ty => |$x:ident| $v:expr;)*) => {$(
        impl From<$t> for JsonValue {
            fn from($x: $t) -> JsonValue {
                $v
            }
        }
        impl ToJson for $t {
            fn to_json(&self) -> JsonValue {
                JsonValue::from(*self)
            }
        }
    )*};
}

scalar! {
    bool => |b| JsonValue::Bool(b);
    u32 => |x| JsonValue::UInt(u64::from(x));
    u64 => |x| JsonValue::UInt(x);
    usize => |x| JsonValue::UInt(x as u64);
    i64 => |x| JsonValue::Int(x);
    f64 => |x| JsonValue::Float(x);
    &str => |s| JsonValue::Str(s.to_string());
}

impl From<String> for JsonValue {
    fn from(s: String) -> JsonValue {
        JsonValue::Str(s)
    }
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(items: Vec<JsonValue>) -> JsonValue {
        JsonValue::Array(items)
    }
}

/// An absent value renders as `null`, a present one as itself.
impl<T: Into<JsonValue>> From<Option<T>> for JsonValue {
    fn from(x: Option<T>) -> JsonValue {
        x.map_or(JsonValue::Null, Into::into)
    }
}

/// An absent value renders as `null`, a present one as itself.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, ToJson::to_json)
    }
}

/// Declare a plain record: a struct whose JSON form is an object of its
/// fields, in declaration order, under their own names — so the struct
/// and its `to_json` cannot drift apart, and a record's keys are decided
/// in one place. Every field renders by reference through [`ToJson`]
/// (scalars, `&str`, `String`, `Option<T>`, `Vec<T>`, nested records);
/// the macro adds no derives, and has no rename, skip or computed-key
/// syntax — a record whose keys are not exactly its fields keeps a
/// hand-written `to_json`.
#[macro_export]
macro_rules! json_record {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$fmeta:meta])* pub $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::JsonValue {
                $crate::JsonValue::object()
                    $(.field(stringify!($field), $crate::ToJson::to_json(&self.$field)))*
                    .build()
            }
        }
    };
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        self.as_slice().to_json()
    }
}

impl ToJson for crate::SimTime {
    fn to_json(&self) -> JsonValue {
        JsonValue::Float(self.as_secs())
    }
}

impl ToJson for crate::TimeAccumulator {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(
            self.entries()
                .map(|(k, v)| (k.to_string(), JsonValue::Float(v)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimTime, TimeAccumulator};

    json_record! {
        /// A nested record.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Inner {
            /// A float.
            pub ratio: f64,
        }
    }
    json_record! {
        /// An outer record.
        #[derive(Clone, Copy, Debug, Default)]
        pub struct Outer {
            /// A counter.
            pub count: u64,
            /// A nested record.
            pub inner: Inner,
        }
    }
    json_record! {
        /// A record of borrowed, owned, optional and narrow fields.
        #[derive(Debug)]
        pub struct Mixed {
            /// A label.
            pub label: &'static str,
            /// An owned string.
            pub name: String,
            /// An optional float.
            pub when: Option<f64>,
            /// A width.
            pub width: usize,
            /// A tick.
            pub tick: u32,
            /// Nested records.
            pub inners: Vec<Inner>,
        }
    }

    #[test]
    fn json_records_render_their_fields_in_declaration_order() {
        let outer = Outer {
            count: 3,
            inner: Inner { ratio: 0.5 },
        };
        assert_eq!(
            outer.to_json().render(),
            r#"{"count":3,"inner":{"ratio":0.5}}"#
        );
        let mut mixed = Mixed {
            label: "a\"b",
            name: String::new(),
            when: Some(2.0),
            width: 3,
            tick: 4,
            inners: vec![Inner { ratio: 1.0 }],
        };
        let v = mixed.to_json();
        assert_eq!(
            v.render(),
            r#"{"label":"a\"b","name":"","when":2.0,"width":3,"tick":4,"inners":[{"ratio":1.0}]}"#
        );
        assert_eq!(v.get("width"), Some(&JsonValue::UInt(3)));
        assert_eq!(v.get("tick"), Some(&JsonValue::UInt(4)));
        mixed.when = None;
        assert_eq!(mixed.to_json().get("when"), Some(&JsonValue::Null));
    }

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::UInt(42).render(), "42");
        assert_eq!(JsonValue::Int(-7).render(), "-7");
        assert_eq!(JsonValue::Float(1.5).render(), "1.5");
        assert_eq!(JsonValue::Float(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Float(2.0).render(), "2.0");
    }

    #[test]
    fn strings_escape() {
        assert_eq!(
            JsonValue::Str("a\"b\\c\nd".into()).render(),
            r#""a\"b\\c\nd""#
        );
        assert_eq!(JsonValue::Str("\u{1}".into()).render(), "\"\\u0001\"");
    }

    #[test]
    fn objects_keep_insertion_order() {
        let v = JsonValue::object()
            .field("z", 1u64)
            .field("a", 2u64)
            .build();
        assert_eq!(v.render(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn options_render_as_null_or_the_value() {
        assert_eq!(JsonValue::from(None::<u64>).render(), "null");
        assert_eq!(JsonValue::from(Some(3u64)).render(), "3");
        assert_eq!(JsonValue::from(Some("x")).render(), r#""x""#);
        let v = JsonValue::object()
            .field("some", Some(3u64))
            .field("none", None::<&str>)
            .build();
        assert_eq!(v.render(), r#"{"some":3,"none":null}"#);
    }

    #[test]
    fn arrays_and_nesting() {
        let v = JsonValue::object()
            .field("xs", vec![JsonValue::UInt(1), JsonValue::UInt(2)])
            .field("inner", JsonValue::object().field("ok", true))
            .build();
        assert_eq!(v.render(), r#"{"xs":[1,2],"inner":{"ok":true}}"#);
    }

    #[test]
    fn pretty_rendering_is_valid_and_indented() {
        let v = JsonValue::object()
            .field("a", vec![JsonValue::UInt(1)])
            .build();
        let s = v.render_pretty();
        assert!(s.contains("\n  \"a\": [\n    1\n  ]\n"), "got: {s}");
    }

    #[test]
    fn parse_round_trips_rendered_values() {
        let v = JsonValue::object()
            .field("cmd", "batch")
            .field("roots", vec![JsonValue::UInt(1), JsonValue::UInt(99)])
            .field("neg", JsonValue::Int(-3))
            .field("f", 0.5f64)
            .field("flag", true)
            .field("nothing", JsonValue::Null)
            .field("text", "é\"中\\😀\n")
            .field("中😀", "ü")
            .build();
        assert_eq!(JsonValue::parse(&v.render()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.render_pretty()).unwrap(), v);
    }

    #[test]
    fn parse_accessors_pick_fields() {
        let v = JsonValue::parse(r#" {"cmd":"query", "root": 7, "xs":[1,2], "b":false} "#).unwrap();
        assert_eq!(v.get("cmd").and_then(JsonValue::as_str), Some("query"));
        assert_eq!(v.get("root").and_then(JsonValue::as_u64), Some(7));
        assert_eq!(
            v.get("xs").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("b").and_then(JsonValue::as_bool), Some(false));
        assert!(v.get("missing").is_none());
        assert_eq!(JsonValue::Int(5).as_u64(), Some(5));
        assert_eq!(JsonValue::Int(-5).as_u64(), None);
    }

    #[test]
    fn parse_string_escapes() {
        for (text, want) in [
            (r#""a\"b\\c\nA""#, "a\"b\\c\nA"),
            // 2-, 3- and 4-byte characters beside escapes, at either end.
            (r#""é\"中\\😀""#, "é\"中\\😀"),
            (r#""\n😀ü\t中\u0041""#, "\n😀ü\t中A"),
            (r#""\u00e9é""#, "\u{e9}é"),
            ("\"😀\"", "😀"),
            (r#""""#, ""),
        ] {
            let v = JsonValue::parse(text).unwrap();
            assert_eq!(v.as_str(), Some(want), "{text}");
        }
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            r#"{"a"}"#,
            "tru",
            "1 2",
            r#"{"a":1} x"#,
            "\"unterminated",
            r#""\q""#,
            r#""\u+041""#,
            r#""\u00g1""#,
            r#""\u12""#,
            "nul",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn parse_caps_nesting_depth_instead_of_overflowing() {
        // One level under the cap parses; at the cap it's a typed error.
        let deep_ok = format!(
            "{}0{}",
            "[".repeat(MAX_PARSE_DEPTH - 1),
            "]".repeat(MAX_PARSE_DEPTH - 1)
        );
        assert!(JsonValue::parse(&deep_ok).is_ok());
        let too_deep = format!(
            "{}0{}",
            "[".repeat(MAX_PARSE_DEPTH),
            "]".repeat(MAX_PARSE_DEPTH)
        );
        let err = JsonValue::parse(&too_deep).expect_err("cap must refuse");
        assert!(err.contains("nesting deeper than"), "got {err}");
        // A pathological unclosed prefix must error, not blow the stack
        // (this is what a fuzzer feeds the wire protocol).
        let bomb = "[".repeat(64 * 1024);
        assert!(JsonValue::parse(&bomb).is_err());
        let obj_bomb = r#"{"a":"#.repeat(64 * 1024);
        assert!(JsonValue::parse(&obj_bomb).is_err());
    }

    #[test]
    fn simtime_and_accumulator_serialize() {
        assert_eq!(SimTime::secs(0.25).to_json().render(), "0.25");
        let mut acc = TimeAccumulator::new();
        acc.add("b", SimTime::secs(2.0));
        acc.add(crate::Category::joined("a.", "x"), SimTime::secs(0.5));
        acc.add("a", SimTime::secs(1.0));
        acc.add("a.x", SimTime::secs(0.25));
        // Entries in printed-name order, a joined key printed in full.
        assert_eq!(acc.to_json().render(), r#"{"a":1.0,"a.x":0.75,"b":2.0}"#);
    }
}
