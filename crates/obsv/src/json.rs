//! Minimal JSON parsing for the observability wire format.
//!
//! The workspace has no serde_json; emission goes through
//! [`eutectica_telemetry::JsonObject`], and this module provides the
//! matching reader: enough of RFC 8259 to decode observable/slice frames
//! off the live endpoint. Numbers parse as `f64`; `\uXXXX` escapes decode
//! including surrogate pairs.

use std::collections::BTreeMap;
use std::fmt;

/// Why a text is not the JSON document or frame a decoder asked for.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JsonError {
    /// Not a JSON document: `what` went wrong at byte `at`.
    Syntax {
        /// Byte offset into the text.
        at: usize,
        /// What the parser expected or rejected there.
        what: &'static str,
    },
    /// Nested deeper than the parser's depth cap.
    Depth,
    /// The `type` member is not `frame`.
    WrongType {
        /// The frame type the decoder wanted.
        frame: &'static str,
    },
    /// A required member is absent.
    Missing {
        /// The member's key.
        field: &'static str,
    },
    /// A member is present but is not the kind of value the frame defines
    /// (wrong JSON type, or a negative / fractional number in an integer
    /// field).
    BadValue {
        /// The member's key.
        field: &'static str,
    },
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonError::Syntax { at, what } => write!(f, "invalid JSON at byte {at}: {what}"),
            JsonError::Depth => write!(f, "JSON nested deeper than {MAX_DEPTH} levels"),
            JsonError::WrongType { frame } => write!(f, "frame type is not '{frame}'"),
            JsonError::Missing { field } => write!(f, "missing field '{field}'"),
            JsonError::BadValue { field } => write!(f, "field '{field}' has an invalid value"),
        }
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always as `f64`).
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object (keys in source order are not preserved; lookups by name).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object by key, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as u64, if this is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Convenience: `self.get(key)?.as_str()`.
    pub(crate) fn str(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Required member `field` read through `as_kind`: absent is
    /// [`JsonError::Missing`], present but rejected by `as_kind` is
    /// [`JsonError::BadValue`].
    fn req<'a, T>(
        &'a self,
        field: &'static str,
        as_kind: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, JsonError> {
        let v = self.get(field).ok_or(JsonError::Missing { field })?;
        as_kind(v).ok_or(JsonError::BadValue { field })
    }

    /// Required number member.
    #[cfg(test)]
    pub(crate) fn req_num(&self, field: &'static str) -> Result<f64, JsonError> {
        self.req(field, Value::as_f64)
    }

    /// Required non-negative integral number member.
    pub(crate) fn req_u64(&self, field: &'static str) -> Result<u64, JsonError> {
        self.req(field, Value::as_u64)
    }

    /// Required array member.
    #[cfg(test)]
    pub(crate) fn req_arr(&self, field: &'static str) -> Result<&[Value], JsonError> {
        self.req(field, Value::as_arr)
    }

    /// Required string member.
    pub(crate) fn req_str(&self, field: &'static str) -> Result<&str, JsonError> {
        self.req(field, Value::as_str)
    }
}

/// Parse one JSON document; trailing whitespace is allowed, trailing
/// garbage is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.syntax("trailing data"));
    }
    Ok(v)
}

/// [`parse`] one wire frame and require its `type` member to be `frame`.
pub(crate) fn parse_frame(line: &str, frame: &'static str) -> Result<Value, JsonError> {
    let v = parse(line)?;
    if v.str("type") != Some(frame) {
        return Err(JsonError::WrongType { frame });
    }
    Ok(v)
}

/// Nesting depth cap: frames are flat, trajectories two levels deep; a
/// deeply nested (or adversarial) document fails instead of overflowing
/// the stack.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// A syntax error at the current position.
    fn syntax(&self, what: &'static str) -> JsonError {
        JsonError::Syntax { at: self.pos, what }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.syntax(what))
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.syntax("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > MAX_DEPTH {
            return Err(JsonError::Depth);
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.syntax("expected a value")),
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'{', "expected '{'")?;
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
            self.expect(b':', "expected ':'")?;
            self.skip_ws();
            let val = self.value(depth + 1)?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.syntax("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.syntax("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.syntax("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or(self.syntax("unterminated escape"))?;
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
                            let hi = self.hex4()?;
                            let cp = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require \uXXXX for the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.syntax("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u', "lone high surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.syntax("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or(self.syntax("invalid codepoint"))?);
                        }
                        _ => return Err(self.syntax("invalid escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so this is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.syntax("invalid UTF-8"))?;
                    let c = s.chars().next().expect("peek saw a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let v = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|hex| std::str::from_utf8(hex).ok())
            .and_then(|hex| u32::from_str_radix(hex, 16).ok())
            .ok_or(self.syntax("invalid \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or(JsonError::Syntax {
                at: start,
                what: "invalid number",
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_frames() {
        let v = parse(r#"{"type":"observable","step":40,"front_mean":12.5,"ok":true}"#).unwrap();
        assert_eq!(v.str("type"), Some("observable"));
        assert_eq!(v.get("step").unwrap().as_u64(), Some(40));
        assert_eq!(v.req_num("front_mean"), Ok(12.5));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_nested_arrays_and_escapes() {
        let v = parse(r#"{"data":[1,2.5,-3e2],"s":"a\"b\né😀","n":null}"#).unwrap();
        let arr = v.get("data").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(v.str("s"), Some("a\"b\né😀"));
        assert_eq!(v.get("n"), Some(&Value::Null));
    }

    #[test]
    fn round_trips_json_object_emission() {
        let line = eutectica_telemetry::JsonObject::new()
            .str_field("name", "tricky \"quote\"\nline")
            .int_field("n", u64::MAX)
            .num_field("x", -0.125)
            .raw_field("arr", "[1,2,3]")
            .finish();
        let v = parse(&line).unwrap();
        assert_eq!(v.str("name"), Some("tricky \"quote\"\nline"));
        assert_eq!(v.req_num("x"), Ok(-0.125));
        assert_eq!(v.get("arr").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert_eq!(
            parse(&("[".repeat(100) + &"]".repeat(100))),
            Err(JsonError::Depth)
        );
        assert!(parse("").is_err());
        let err = parse(r#"{"a" 1}"#).unwrap_err();
        assert_eq!(
            err,
            JsonError::Syntax {
                at: 5,
                what: "expected ':'"
            }
        );
        assert_eq!(err.to_string(), "invalid JSON at byte 5: expected ':'");
    }

    #[test]
    fn required_members_tell_missing_from_bad() {
        let v = parse(r#"{"n":-3,"x":1.5,"s":"a","a":[1]}"#).unwrap();
        assert_eq!(v.req_num("n"), Ok(-3.0));
        assert_eq!(v.req_u64("n"), Err(JsonError::BadValue { field: "n" }));
        assert_eq!(v.req_u64("x"), Err(JsonError::BadValue { field: "x" }));
        assert_eq!(v.req_u64("s"), Err(JsonError::BadValue { field: "s" }));
        assert_eq!(v.req_u64("gone"), Err(JsonError::Missing { field: "gone" }));
        assert_eq!(v.req_str("s"), Ok("a"));
        assert_eq!(v.req_arr("a").map(<[Value]>::len), Ok(1));
        assert_eq!(v.req_arr("s"), Err(JsonError::BadValue { field: "s" }));
        assert_eq!(
            parse_frame(r#"{"type":"job"}"#, "slice"),
            Err(JsonError::WrongType { frame: "slice" })
        );
    }
}
