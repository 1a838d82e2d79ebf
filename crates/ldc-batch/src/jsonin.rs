//! A minimal JSON *reader* to pair with the workspace's hand-written
//! writer ([`ldc_sim::json`]). The workspace builds hermetically (no
//! serde), so spec files are parsed by this recursive-descent parser:
//! full RFC 8259 syntax, with numbers restricted to what specs need
//! (integers and decimal fractions; no exponents), and array/object
//! nesting bounded by [`MAX_DEPTH`].

/// Deepest array/object nesting a document may have. Real specs nest
/// about 5 deep; the bound keeps a hostile document (say, 200 000 `[`)
/// from overflowing the recursive parser's stack — it is an error like
/// any other malformed input.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (specs only use integers and decimal fractions).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Field lookup that fails loudly, for required spec fields.
    pub fn require(&self, key: &str) -> Result<&Value, String> {
        self.get(key)
            .ok_or_else(|| format!("missing required field {key:?}"))
    }

    /// Strict-mode check: error when this object carries a key outside
    /// `allowed`. Loose parsing (the default everywhere fixtures are
    /// read) ignores unknown fields so old spec files keep working; the
    /// daemon's wire frames parse strictly so a typo'd field is a typed
    /// error instead of a silently-ignored knob.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), String> {
        if let Value::Obj(fields) = self {
            for (k, _) in fields {
                if !allowed.contains(&k.as_str()) {
                    return Err(format!(
                        "unknown field {k:?} (strict mode accepts: {})",
                        allowed.join(", ")
                    ));
                }
            }
        }
        Ok(())
    }

    /// `get(key).as_u64()` with a default for absent fields and an error
    /// for present-but-wrong-typed ones.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| format!("field {key:?} is not a non-negative integer")),
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, found {:?}",
            b as char,
            *pos,
            bytes.get(*pos).map(|&c| c as char)
        ))
    }
}

/// Parse one value inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&c| c as char),
            *pos
        )),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len() && (bytes[*pos].is_ascii_digit() || bytes[*pos] == b'.') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&bytes[start..*pos]).expect("digits are ASCII");
    s.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("bad number {s:?} at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
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
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest =
                    std::str::from_utf8(&bytes[*pos..]).map_err(|_| "invalid UTF-8 in string")?;
                let c = rest.chars().next().expect("non-empty by match arm");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let val = parse_value(bytes, pos, depth)?;
        fields.push((key, val));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let v = Value::parse(r#"{"a": 1, "b": [true, null, "x\n"], "c": {"d": -2.5}, "λ": "é"}"#)
            .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
        assert_eq!(v.get("c").unwrap().get("d").unwrap().as_f64(), Some(-2.5));
        assert_eq!(v.get("λ").unwrap().as_str(), Some("é"));
    }

    #[test]
    fn round_trips_the_workspace_writer() {
        let written = ldc_sim::json::Obj::new()
            .str("name", "a\"b\\c\n")
            .u64("count", 42)
            .bool("ok", false)
            .raw("list", &ldc_sim::json::array(vec!["1".into(), "2".into()]))
            .finish();
        let v = Value::parse(&written).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\n"));
        assert_eq!(v.get("count").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("list").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn unicode_escapes_decode() {
        let v = Value::parse(r#""Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("Aé"));
    }

    #[test]
    fn helpers_enforce_types() {
        let v = Value::parse(r#"{"n": 5, "s": "x"}"#).unwrap();
        assert_eq!(v.u64_or("n", 9).unwrap(), 5);
        assert_eq!(v.u64_or("absent", 9).unwrap(), 9);
        assert!(v.u64_or("s", 9).is_err());
        assert!(v.require("absent").is_err());
        assert!(v.require("n").is_ok());
    }

    #[test]
    fn expect_only_separates_strict_from_loose() {
        let v = Value::parse(r#"{"graph": 1, "seed": 2, "sede": 3}"#).unwrap();
        let err = v.expect_only(&["graph", "seed"]).unwrap_err();
        assert!(err.contains("sede"), "{err}");
        assert!(err.contains("graph"), "error names the accepted set: {err}");
        assert!(v.expect_only(&["graph", "seed", "sede"]).is_ok());
        // Non-objects are vacuously fine (the caller's type checks fire).
        assert!(Value::Num(3.0).expect_only(&[]).is_ok());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "\"unterminated",
            "1 2",
            "{\"a\":1}x",
        ] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |depth: usize, open: &str, close: &str| {
            format!("{}1{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(Value::parse(&nested(MAX_DEPTH, "[", "]")).is_ok());
        assert!(Value::parse(&nested(MAX_DEPTH, "{\"a\":", "}")).is_ok());
        for bad in [
            nested(MAX_DEPTH + 1, "[", "]"),
            nested(MAX_DEPTH + 1, "{\"a\":", "}"),
            // The reported stack-overflow input: unclosed, far past the bound.
            "[".repeat(200_000),
        ] {
            let err = Value::parse(&bad).unwrap_err();
            assert!(err.contains("nesting deeper than"), "{err}");
        }
    }
}
