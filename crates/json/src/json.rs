//! The JSON text: the value type, the strict reader and the
//! shortest-round-trip writer.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer without fractional part or exponent.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any number written with a fraction or exponent.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved, duplicate keys rejected
    /// at parse time.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Read as `u64`, rejecting anything else.
    pub fn as_u64(&self, ctx: &str) -> Result<u64, String> {
        match self {
            Json::U64(v) => Ok(*v),
            other => Err(format!("{ctx}: expected unsigned integer, got {other:?}")),
        }
    }

    /// Read as an unsigned integer narrower than `u64`, rejecting a
    /// value the field cannot hold rather than truncating it.
    pub fn as_uint<T: TryFrom<u64>>(&self, ctx: &str) -> Result<T, String> {
        let v = self.as_u64(ctx)?;
        T::try_from(v).map_err(|_| format!("{ctx}: {v} is out of range"))
    }

    /// Read as `f64`; integers widen (a hand-written `3` is a fine
    /// value for a float field).
    pub fn as_f64(&self, ctx: &str) -> Result<f64, String> {
        match self {
            Json::F64(v) => Ok(*v),
            Json::U64(v) => Ok(*v as f64),
            Json::I64(v) => Ok(*v as f64),
            other => Err(format!("{ctx}: expected number, got {other:?}")),
        }
    }

    /// Read as `bool`.
    pub fn as_bool(&self, ctx: &str) -> Result<bool, String> {
        match self {
            Json::Bool(v) => Ok(*v),
            other => Err(format!("{ctx}: expected bool, got {other:?}")),
        }
    }

    /// Read as a string slice.
    pub fn as_str(&self, ctx: &str) -> Result<&str, String> {
        match self {
            Json::Str(v) => Ok(v),
            other => Err(format!("{ctx}: expected string, got {other:?}")),
        }
    }

    /// Read as an array slice.
    pub fn as_arr(&self, ctx: &str) -> Result<&[Json], String> {
        match self {
            Json::Arr(v) => Ok(v),
            other => Err(format!("{ctx}: expected array, got {other:?}")),
        }
    }

    /// Consume as an object reader (strict: every key must be taken).
    pub fn into_obj(self, ctx: &str) -> Result<ObjReader, String> {
        match self {
            Json::Obj(fields) => Ok(ObjReader {
                ctx: ctx.to_string(),
                fields,
            }),
            other => Err(format!("{ctx}: expected object, got {other:?}")),
        }
    }

    /// Set the value at `at`, creating objects and appending array
    /// elements on the way: writing each field of a document in order
    /// builds the document.
    pub fn set(&mut self, at: &[Step], v: Json) {
        let Some((step, rest)) = at.split_first() else {
            *self = v;
            return;
        };
        let fresh = || match rest.first() {
            Some(Step::Index(_)) => Json::Arr(Vec::new()),
            _ => Json::Obj(Vec::new()),
        };
        let next = match (self, step) {
            (Json::Obj(members), Step::Key(k)) => match members.iter().position(|(m, _)| m == k) {
                Some(i) => &mut members[i].1,
                None => {
                    members.push((k.to_string(), fresh()));
                    &mut members.last_mut().expect("pushed").1
                }
            },
            (Json::Arr(items), Step::Index(i)) => {
                if *i == items.len() {
                    items.push(fresh());
                }
                &mut items[*i]
            }
            (other, _) => panic!("no {step:?} in {other:?}"),
        };
        next.set(rest, v);
    }

    /// Render to pretty (2-space indented) JSON text.
    pub fn to_text(&self) -> String {
        self.to_text_with_rows(&[])
    }

    /// Render to pretty JSON text, except that each element of an
    /// array at one of the places `rows` is written on one line.
    pub(crate) fn to_text_with_rows(&self, rows: &[&[Step]]) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0), rows);
        out
    }

    /// Write at `indent` levels, or on one line (`None`).
    fn write(&self, out: &mut String, indent: Option<usize>, rows: &[&[Step]]) {
        let (members, open, close): (Vec<(Option<&str>, &Json)>, _, _) = match self {
            Json::Arr(items) => (items.iter().map(|v| (None, v)).collect(), "[", "]"),
            Json::Obj(fields) => {
                let members = fields.iter().map(|(k, v)| (Some(k.as_str()), v));
                (members.collect(), "{", "}")
            }
            Json::Str(s) => return write_escaped(out, s),
            leaf => {
                let _ = match leaf {
                    Json::Bool(b) => write!(out, "{b}"),
                    Json::U64(v) => write!(out, "{v}"),
                    Json::I64(v) => write!(out, "{v}"),
                    // `{:?}` is the shortest representation that parses
                    // back to the same bits, `NaN` and `inf` included.
                    Json::F64(v) => write!(out, "{v:?}"),
                    _ => write!(out, "null"),
                };
                return;
            }
        };
        out.push_str(open);
        let (first, between, last) = match indent {
            Some(n) => {
                let pad = |n: usize| format!("\n{}", "  ".repeat(n));
                (pad(n + 1), format!(",{}", pad(n + 1)), pad(n))
            }
            None => (" ".into(), ", ".into(), " ".into()),
        };
        // The elements of an array at one of `rows` go on one line each.
        let inner = indent.filter(|_| !rows.contains(&&[][..])).map(|n| n + 1);
        for (i, (key, v)) in members.iter().enumerate() {
            out.push_str(if i == 0 { &first } else { &between });
            if let Some(k) = key {
                write_escaped(out, k);
                out.push_str(": ");
            }
            let here = |s: &Step| match (s, key) {
                (Step::Key(s), Some(k)) => s == k,
                (Step::Index(j), None) => *j == i,
                _ => false,
            };
            let under: Vec<&[Step]> = (rows.iter().filter_map(|r| r.split_first()))
                .filter_map(|(s, rest)| here(s).then_some(rest))
                .collect();
            v.write(out, inner, &under);
        }
        if !members.is_empty() {
            out.push_str(&last);
        }
        out.push_str(close);
    }
}

/// One step into a JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// An object member.
    Key(&'static str),
    /// An array element.
    Index(usize),
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

/// Strict object-field consumer. `take` each expected key, then call
/// [`ObjReader::finish`]: leftover keys — typos, stale fields from an
/// old spec version — are an error, never silently dropped.
pub struct ObjReader {
    ctx: String,
    fields: Vec<(String, Json)>,
}

impl ObjReader {
    /// Remove and return a required field.
    pub fn take(&mut self, key: &str) -> Result<Json, String> {
        self.take_opt(key)
            .ok_or_else(|| format!("{}: missing field \"{key}\"", self.ctx))
    }

    /// Remove and return a field if present.
    pub fn take_opt(&mut self, key: &str) -> Option<Json> {
        let i = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(i).1)
    }

    /// Error on any unconsumed (unknown) field.
    pub fn finish(self) -> Result<(), String> {
        if let Some((k, _)) = self.fields.first() {
            return Err(format!("{}: unknown field \"{k}\"", self.ctx));
        }
        Ok(())
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. A spec
/// nests five deep, a scorecard less.
pub const MAX_DEPTH: usize = 32;

/// Parse JSON text.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, s: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            // The writer's spelling of non-finite floats, so a value a
            // spec rule refuses reaches that rule instead of failing
            // here.
            Some(b'N') => self.literal("NaN", Json::F64(f64::NAN)),
            Some(b'i') => self.literal("inf", Json::F64(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.literal("-inf", Json::F64(f64::NEG_INFINITY))
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => {
                Err(self.err(&format!("nested deeper than {MAX_DEPTH}")))
            }
            Some(open @ (b'[' | b'{')) => {
                self.depth += 1;
                let v = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                v
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected byte '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key \"{key}\"")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
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
                        Some(c @ (b'"' | b'\\' | b'/' | b'n' | b'r' | b't' | b'b' | b'f')) => {
                            out.push(match c {
                                b'n' => '\n',
                                b'r' => '\r',
                                b't' => '\t',
                                b'b' => '\u{0008}',
                                b'f' => '\u{000c}',
                                c => c as char,
                            });
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let cp = 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00);
                                char::from_u32(cp)
                            } else {
                                char::from_u32(hi)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so the
                    // byte stream is valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input was a str");
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut fractional = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    fractional = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if fractional {
            let v: f64 = text
                .parse()
                .map_err(|_| self.err(&format!("bad number \"{text}\"")))?;
            if !v.is_finite() {
                return Err(self.err(&format!("non-finite number \"{text}\"")));
            }
            Ok(Json::F64(v))
        } else if text.starts_with('-') {
            let v: i64 = text
                .parse()
                .map_err(|_| self.err(&format!("bad integer \"{text}\"")))?;
            Ok(Json::I64(v))
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| self.err(&format!("bad integer \"{text}\"")))?;
            Ok(Json::U64(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_values() {
        let v = Json::Obj(vec![
            ("name".into(), Json::Str("base\"line\\1".into())),
            ("seed".into(), Json::U64(u64::MAX)),
            ("offset".into(), Json::I64(-42)),
            ("ratio".into(), Json::F64(0.1)),
            ("on".into(), Json::Bool(true)),
            ("none".into(), Json::Null),
            (
                "list".into(),
                Json::Arr(vec![Json::U64(1), Json::Obj(vec![])]),
            ),
        ]);
        let text = v.to_text();
        assert_eq!(parse(&text).expect("parses"), v);
    }

    #[test]
    fn u64_integers_do_not_widen_through_f64() {
        // 2^63 + 1 is not representable in f64; it must survive.
        let big = (1u64 << 63) + 1;
        let v = parse(&big.to_string()).expect("parses");
        assert_eq!(v, Json::U64(big));
    }

    #[test]
    fn floats_round_trip_to_identical_bits() {
        for x in [0.1f64, 1.0 / 3.0, 2.5e-7, 1e20, -0.0] {
            let text = Json::F64(x).to_text();
            match parse(&text).expect("parses") {
                Json::F64(y) => assert_eq!(x.to_bits(), y.to_bits(), "{text}"),
                other => panic!("expected float, got {other:?} from {text}"),
            }
        }
    }

    #[test]
    fn duplicate_and_unknown_keys_are_errors() {
        assert!(parse("{\"a\": 1, \"a\": 2}").is_err());
        let mut obj = parse("{\"a\": 1, \"b\": 2}")
            .unwrap()
            .into_obj("test")
            .unwrap();
        obj.take("a").unwrap();
        let err = obj.finish().unwrap_err();
        assert!(err.contains("unknown field \"b\""), "{err}");
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let s = "tab\there \"quoted\" back\\slash\nline\u{1}𝄞";
        let text = Json::Str(s.into()).to_text();
        assert_eq!(parse(&text).unwrap(), Json::Str(s.into()));
        // Standard escape forms parse too.
        assert_eq!(
            parse("\"\\u0041\\ud834\\udd1e\"").unwrap(),
            Json::Str("A𝄞".into())
        );
        assert_eq!(
            parse(r#""\/\b\f\"\\""#).unwrap(),
            Json::Str("/\u{8}\u{c}\"\\".into())
        );
    }

    #[test]
    fn malformed_inputs_fail_loudly() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"\\q\"",
            "01x",
            "{} {}",
            "\"\\ud834\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // Depth is what is open at once, not what was ever opened.
        let wide = format!("[{}[]]", "[],".repeat(10 * MAX_DEPTH));
        assert!(parse(&wide).is_ok());
    }
}
