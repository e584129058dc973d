//! A minimal, dependency-free JSON value type with a writer and parser.
//!
//! The experiment harness serializes its reports to JSON for downstream
//! analysis, but this workspace builds offline (no `serde`/`serde_json`).
//! This module covers the small slice of JSON the workspace needs: finite
//! numbers, strings, booleans, null, arrays and objects — enough to write
//! and re-read [`crate::Trajectory`]-derived statistics and experiment
//! reports.
//!
//! Object key order is preserved (insertion order), numbers are `f64`
//! (integers round-trip exactly up to 2⁵³) and the compact writer matches
//! `serde_json`'s spacing so existing downstream tooling keeps working.
//!
//! ```
//! use traj_model::json::JsonValue;
//!
//! let v = JsonValue::object([
//!     ("name", JsonValue::from("Taxi")),
//!     ("points", JsonValue::from(1500.0)),
//! ]);
//! let text = v.to_string();
//! assert_eq!(text, r#"{"name":"Taxi","points":1500}"#);
//!
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(back.get("points").and_then(JsonValue::as_f64), Some(1500.0));
//! ```

use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (JSON has no NaN/Infinity).
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved.
    Object(Vec<(String, JsonValue)>),
}

/// An error produced when parsing malformed JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the error in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

impl From<&str> for JsonValue {
    fn from(s: &str) -> Self {
        JsonValue::String(s.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(s: String) -> Self {
        JsonValue::String(s)
    }
}

impl From<f64> for JsonValue {
    /// Non-finite values become [`JsonValue::Null`]: JSON cannot represent
    /// NaN or the infinities, and mapping them at construction keeps the
    /// writer and parser consistent (what is written as `null` parses back
    /// as `Null`).
    fn from(v: f64) -> Self {
        if v.is_finite() {
            JsonValue::Number(v)
        } else {
            JsonValue::Null
        }
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl<T: Into<JsonValue>> From<Vec<T>> for JsonValue {
    fn from(v: Vec<T>) -> Self {
        JsonValue::Array(v.into_iter().map(Into::into).collect())
    }
}

impl JsonValue {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>, I: IntoIterator<Item = (K, JsonValue)>>(pairs: I) -> Self {
        JsonValue::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Looks a key up in an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as a non-negative integer, if it is one exactly.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            JsonValue::Number(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= (1u64 << 53) as f64 => {
                Some(*v as usize)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Serializes compactly (no whitespace), like `serde_json::to_string`.
    #[allow(clippy::inherent_to_string)]
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Serializes with two-space indentation, like
    /// `serde_json::to_string_pretty`.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Number(v) => write_number(out, *v),
            JsonValue::String(s) => write_escaped(out, s),
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
                    write_newline_indent(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                write_newline_indent(out, indent, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_newline_indent(out, indent, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                write_newline_indent(out, indent, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonParseError`] describing the first malformed byte.
    pub fn parse(input: &str) -> Result<JsonValue, JsonParseError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_whitespace();
        let value = p.parse_value()?;
        p.skip_whitespace();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

fn write_newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

/// Magnitudes below which [`write_number`] tries its exact-decimal fast
/// path: under 2³³ the spacing of doubles is at most 2⁻²⁰, far finer than
/// the 0.001 between the decimals that path writes.
const EXACT_DECIMAL_LIMIT: f64 = (1u64 << 33) as f64;

/// Appends a number the way `serde_json` writes it: integers without a
/// decimal point, everything else through the shortest round-trippable
/// `f64` form; NaN and the infinities become `null`.  Allocation-free, so
/// callers that stream JSON straight into a buffer use it directly.
///
/// The store's numbers take a fast path that skips std's general
/// shortest-digits search.  Dequantized coordinates are `q·0.01` and
/// timestamps `q·0.001`, so most of them are the double nearest a decimal
/// with at most three fraction digits.  For a finite `v` with
/// `0 < |v| < 2³³`, `k = round(|v|·1000)` is tried, and accepted only
/// when `k as f64 / 1000.0 == |v|`; the digits of `k / 1000` are then
/// written with trailing zeros trimmed.  That string is exactly what std
/// would print:
///
/// * the division is correctly rounded and `k < 2⁵³` is exact, so
///   equality means the decimal `k / 1000` parses back to `v`;
/// * any other decimal with no more significant digits lies at least
///   0.001 from `k / 1000` when its leading digit is in the same place
///   or higher, and at least 0.0001 when it sits below the power of ten
///   that `k / 1000` reaches; two decimals that both parse to `v` lie
///   within one ulp of each other, and one ulp is at most 2⁻²⁰ here;
/// * so the string is the unique shortest round-tripping one, which is
///   what std's `Display` prints (it never uses an exponent).  `k / 1000`
///   is never a tie between two doubles: a decimal of that form with a
///   finite binary expansion is a multiple of 1/8, itself a double.
///
/// Every other value, `±0.0` among them, takes the general path below
/// unchanged.  The rounding uses an add-and-truncate cast rather than
/// `f64::round`, which is a library call on baseline x86-64; a `k` it
/// gets wrong is only a missed fast path, never a wrong digit.
pub fn write_number(out: &mut String, v: f64) {
    use std::fmt::Write as _;
    if !v.is_finite() {
        // JSON cannot represent NaN/Infinity; null is the least-bad option.
        out.push_str("null");
        return;
    }
    let magnitude = v.abs();
    if magnitude > 0.0 && magnitude < EXACT_DECIMAL_LIMIT {
        let millis = (magnitude * 1000.0 + 0.5) as u64;
        if millis as f64 / 1000.0 == magnitude {
            write_millis(out, v < 0.0, millis);
            return;
        }
    }
    // Negative zero must not take the integer path: `-0.0 as u64` is
    // `0`, which would silently drop the sign on a round-trip.
    if v.fract() == 0.0 && magnitude < (1u64 << 53) as f64 && (v != 0.0 || v.is_sign_positive()) {
        if v < 0.0 {
            out.push('-');
        }
        write_u64(out, magnitude as u64);
    } else {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }
}

/// Appends an unsigned integer exactly.  Ids, indices and counts go
/// through here rather than [`write_number`], since `f64` rounds them
/// above 2⁵³.
pub fn write_u64(out: &mut String, v: u64) {
    let mut digits = Digits::new();
    digits.push_u64(v);
    out.push_str(digits.as_str());
}

/// Appends `millis / 1000` with at most three fraction digits, trailing
/// zeros trimmed and no decimal point when it is integral.
fn write_millis(out: &mut String, negative: bool, millis: u64) {
    let mut digits = Digits::new();
    let mut fraction = millis % 1000;
    if fraction != 0 {
        let mut width = 3;
        while fraction.is_multiple_of(10) {
            fraction /= 10;
            width -= 1;
        }
        for _ in 0..width {
            digits.push((fraction % 10) as u8 + b'0');
            fraction /= 10;
        }
        digits.push(b'.');
    }
    digits.push_u64(millis / 1000);
    if negative {
        digits.push(b'-');
    }
    out.push_str(digits.as_str());
}

/// A number's characters written right to left into a stack buffer, so
/// writing it costs one `push_str` and no allocation of its own.
struct Digits {
    buf: [u8; 24],
    start: usize,
}

impl Digits {
    fn new() -> Self {
        Digits {
            buf: [0; 24],
            start: 24,
        }
    }

    fn push(&mut self, byte: u8) {
        self.start -= 1;
        self.buf[self.start] = byte;
    }

    fn push_u64(&mut self, mut v: u64) {
        loop {
            self.push((v % 10) as u8 + b'0');
            v /= 10;
            if v == 0 {
                break;
            }
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.buf[self.start..]).expect("digits are ASCII")
    }
}

/// Appends `s` as a JSON string literal, quoted and escaped.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Maximum container nesting the parser accepts.  Malformed or adversarial
/// input must yield a [`JsonParseError`], not a stack overflow; the
/// workspace's own reports nest three levels deep.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> JsonParseError {
        JsonParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(JsonValue::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.parse_literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{word}'")))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let value: f64 = text
            .parse()
            .map_err(|_| self.error(&format!("invalid number '{text}'")))?;
        // `str::parse` maps out-of-range literals like `1e999` to the
        // infinities; a parsed `Number` must always be finite.
        if !value.is_finite() {
            return Err(self.error(&format!("number '{text}' out of range")));
        }
        Ok(JsonValue::Number(value))
    }

    fn parse_string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.error("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.error("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by this
                            // workspace's writers; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar straight from the input,
                    // which is already valid UTF-8; validating the rest of
                    // it per character would make long strings quadratic.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| self.error("invalid utf-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn enter(&mut self) -> Result<(), JsonParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn parse_array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.parse_value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.parse_string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_compact_like_serde_json() {
        let v = JsonValue::object([
            ("name", JsonValue::from("Test")),
            ("n", JsonValue::from(3usize)),
            ("ratio", JsonValue::from(0.25)),
            ("flag", JsonValue::from(true)),
            ("none", JsonValue::Null),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"name":"Test","n":3,"ratio":0.25,"flag":true,"none":null}"#
        );
    }

    #[test]
    fn pretty_output_is_indented() {
        let v = JsonValue::object([("a", JsonValue::from(vec![1.0, 2.0]))]);
        let pretty = v.to_string_pretty();
        assert!(pretty.contains("\n  \"a\": [\n    1,\n    2\n  ]"));
        assert_eq!(JsonValue::parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parses_what_it_writes() {
        let v = JsonValue::object([
            ("s", JsonValue::from("quote \" backslash \\ tab \t")),
            ("nums", JsonValue::from(vec![0.5, -3.0, 1e9])),
            ("nested", JsonValue::object([("k", JsonValue::from(1.0))])),
        ]);
        assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v);
        assert_eq!(JsonValue::parse(&v.to_string_pretty()).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = JsonValue::parse(r#"{"a": 2, "b": "x", "c": [1, 2], "d": false}"#).unwrap();
        assert_eq!(v.get("a").and_then(JsonValue::as_usize), Some(2));
        assert_eq!(v.get("a").and_then(JsonValue::as_f64), Some(2.0));
        assert_eq!(v.get("b").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(
            v.get("c").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("d").and_then(JsonValue::as_bool), Some(false));
        assert_eq!(v.get("missing"), None);
        assert_eq!(JsonValue::Null.get("a"), None);
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "1..2",
            "\"unterminated",
            "{} extra",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let bomb = "[".repeat(100_000);
        let err = JsonValue::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        // Nesting at the limit still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(JsonValue::parse(&ok).is_ok());
    }

    #[test]
    fn number_formatting_preserves_integers() {
        assert_eq!(JsonValue::Number(1500.0).to_string(), "1500");
        assert_eq!(JsonValue::Number(-2.0).to_string(), "-2");
        assert_eq!(JsonValue::Number(0.125).to_string(), "0.125");
        assert_eq!(JsonValue::Number(f64::NAN).to_string(), "null");
    }

    #[test]
    fn write_number_handles_the_edge_cases() {
        let two_53 = (1u64 << 53) as f64;
        for (v, want) in [
            (-0.0, "-0.0".to_string()),
            (two_53, "9007199254740992.0".to_string()),
            (-two_53, "-9007199254740992.0".to_string()),
            (two_53 - 1.0, "9007199254740991".to_string()),
            (0.1 + 0.2, "0.30000000000000004".to_string()),
            (5e-324, format!("0.{}5", "0".repeat(323))),
            (f64::NAN, "null".to_string()),
            (f64::INFINITY, "null".to_string()),
        ] {
            // Appends after whatever the buffer already holds.
            let mut out = String::from("[");
            write_number(&mut out, v);
            assert_eq!(&out[1..], want, "{v:?}");
            assert_eq!(JsonValue::Number(v).to_string(), want, "{v:?}");
        }
        let mut max = String::new();
        write_number(&mut max, f64::MAX);
        assert_eq!(max.len(), 311);
        assert!(max.starts_with("179769313486231570") && max.ends_with(".0"));
        assert_eq!(max.parse::<f64>(), Ok(f64::MAX));
    }

    #[test]
    fn non_finite_numbers_are_consistent() {
        // Construction maps non-finite to Null, matching what the writer
        // emits and the parser returns.
        assert_eq!(JsonValue::from(f64::NAN), JsonValue::Null);
        assert_eq!(JsonValue::from(f64::INFINITY), JsonValue::Null);
        assert_eq!(JsonValue::from(f64::NEG_INFINITY), JsonValue::Null);
        let v = JsonValue::object([("x", JsonValue::from(f64::NAN))]);
        let text = v.to_string();
        assert_eq!(text, r#"{"x":null}"#);
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
        // A directly constructed non-finite Number still writes as null.
        assert_eq!(JsonValue::Number(f64::INFINITY).to_string(), "null");
        // Out-of-range literals are rejected instead of overflowing to
        // infinity.
        for bad in ["1e999", "-1e999", "1e400"] {
            let err = JsonValue::parse(bad).unwrap_err();
            assert!(err.message.contains("out of range"), "{bad}: {err}");
        }
    }

    #[test]
    #[allow(clippy::excessive_precision)] // over-long literals are the point here
    fn high_precision_numbers_roundtrip_exactly() {
        let tricky = [
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            -0.0,
            9007199254740993.0, // 2^53 + 1 (rounds to 2^53, still exact as f64)
            1.7976931348623155e308,
            2.2250738585072011e-308,
            std::f64::consts::PI,
        ];
        for &v in &tricky {
            let text = JsonValue::Number(v).to_string();
            let back = JsonValue::parse(&text).unwrap();
            let got = back
                .as_f64()
                .unwrap_or_else(|| panic!("{text} not a number"));
            assert_eq!(got.to_bits(), v.to_bits(), "{v:?} → {text} → {got:?}");
        }
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let text = JsonValue::Number(-0.0).to_string();
        assert_eq!(text, "-0.0");
        let back = JsonValue::parse(&text).unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative());
    }

    #[test]
    fn unicode_roundtrip() {
        let v = JsonValue::from("héllo ☃");
        assert_eq!(JsonValue::parse(&v.to_string()).unwrap(), v);
        assert_eq!(JsonValue::parse(r#""A☃""#).unwrap(), JsonValue::from("A☃"));
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // A 1 MiB string value must parse in one pass over its bytes.
        let body = "abc☃".repeat((1 << 20) / 6);
        let document = format!(r#"{{"key":"{body}"}}"#);
        let started = std::time::Instant::now();
        let parsed = JsonValue::parse(&document).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(parsed.get("key"), Some(&JsonValue::from(body.as_str())));
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "took {elapsed:?}"
        );
    }
}
