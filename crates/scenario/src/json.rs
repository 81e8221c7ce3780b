//! A minimal, strict JSON layer for scenario specs.
//!
//! Third-party deps are vendored and serde is deliberately not among
//! them (vendor/README.md), so the scenario crate carries its own
//! small JSON value type, parser and writer. The design goals differ
//! from a general-purpose library's:
//!
//! * **Lossless numbers** — `u64` seeds and bit counters must survive
//!   a round trip exactly, so integers are kept as `U64`/`I64` and
//!   never widened through `f64`. Floats are written with Rust's
//!   shortest round-trip formatting (`{:?}`), which `str::parse::<f64>`
//!   reads back to the identical bits.
//! * **Strict objects** — duplicate keys are a parse error, and the
//!   [`ObjReader`] consumption helper makes *unknown* keys an error at
//!   decode time: a typo'd spec field fails loudly instead of being
//!   silently ignored (the classic config-file foot-gun).
//! * **Bounded nesting** — arrays and objects nest at most
//!   [`MAX_DEPTH`] deep; a hostile `[[[[…` is a parse error, not a
//!   stack overflow.
//! * **Declared documents** — a document type states each field once
//!   to a `Cx` (key, type, [`Rule`]s); reading it and listing it as
//!   [`Field`]s are the two passes over that statement, and writing
//!   ([`Json::set`] per field) and checking read the listing.

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
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        let pad = |out: &mut String, n: usize| {
            for _ in 0..n {
                out.push_str("  ");
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                // `{:?}` is the shortest representation that parses
                // back to the same bits, `NaN` and `inf` included.
                let _ = write!(out, "{v:?}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in fields.iter().enumerate() {
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    if i + 1 < fields.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                pad(out, indent);
                out.push('}');
            }
        }
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
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{0008}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{000c}');
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
        } else if let Some(stripped) = text.strip_prefix('-') {
            let _ = stripped;
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

// ------------------------------------------------------------------
// Declarations: a document type states each of its fields once to a
// `Cx` — key, type, rules — and reading and listing are the two passes
// over that statement (`crate::spec` holds the declarations).
// ------------------------------------------------------------------

pub(crate) const MIN_MS: u64 = 60 * 1000;
pub(crate) const HOUR_MS: u64 = 60 * MIN_MS;

/// A rule on one value of the format. The rules relating two values
/// are the spec's own code (`ScenarioSpec::validate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// A non-empty string.
    NonEmpty,
    /// An integer no smaller than this.
    Min(u64),
    /// A count of hours whose milliseconds fit in a `u64`.
    Hours,
    /// A count of minutes whose milliseconds fit in a `u64`.
    Minutes,
    /// A finite float.
    Finite,
    /// A finite float no smaller than this.
    AtLeast(f64),
    /// A finite float larger than this.
    Above(f64),
    /// A finite float in [0, 1].
    Probability,
}

impl Rule {
    /// Check the written value `v` of the field at `p`: `null` (an
    /// absent option) passes, an array is checked element by element.
    pub(crate) fn check(self, v: &Json, p: &str) -> Result<(), String> {
        match (self, v) {
            (_, Json::Arr(items)) => {
                let mut items = items.iter().enumerate();
                items.try_for_each(|(j, x)| self.check(x, &format!("{p}[{j}]")))
            }
            (Rule::NonEmpty, Json::Str(s)) if s.is_empty() => {
                Err(format!("{p}: must be non-empty"))
            }
            (Rule::Min(n), Json::U64(x)) if *x < n => Err(format!("{p}: must be ≥ {n}")),
            (Rule::Hours, Json::U64(x)) => fits_ms(Some(*x), HOUR_MS, p),
            (Rule::Minutes, Json::U64(x)) => fits_ms(Some(*x), MIN_MS, p),
            (_, Json::F64(x)) if !x.is_finite() => Err(format!("{p}: must be finite, got {x}")),
            (Rule::AtLeast(lo), Json::F64(x)) if *x < lo => Err(format!("{p}: must be ≥ {lo}")),
            (Rule::Above(lo), Json::F64(x)) if *x <= lo => {
                Err(format!("{p}: must be > {lo}, got {x}"))
            }
            (Rule::Probability, Json::F64(x)) if !(0.0..=1.0).contains(x) => {
                Err(format!("{p}: probability out of [0, 1]: {x}"))
            }
            _ => Ok(()),
        }
    }

    pub(crate) fn describe(self) -> String {
        match self {
            Rule::NonEmpty => "non-empty".into(),
            Rule::Min(n) => format!("≥ {n}"),
            Rule::Hours => "× 1 h fits in u64 ms".into(),
            Rule::Minutes => "× 1 min fits in u64 ms".into(),
            Rule::Finite => "finite".into(),
            Rule::AtLeast(lo) => format!("finite, ≥ {lo}"),
            Rule::Above(lo) => format!("finite, > {lo}"),
            Rule::Probability => "finite, in [0, 1]".into(),
        }
    }
}

/// `units` spans of `unit_ms` each must come to a `u64` of
/// milliseconds: the builder multiplies them out unchecked.
pub(crate) fn fits_ms(units: Option<u64>, unit_ms: u64, ctx: &str) -> Result<(), String> {
    match units.and_then(|u| u.checked_mul(unit_ms)) {
        Some(_) => Ok(()),
        None => Err(format!("{ctx}: does not fit in u64 milliseconds")),
    }
}

/// A leaf value of the format: its JSON type, how it is written and
/// how it is read.
pub(crate) trait Scalar: Sized {
    fn ty() -> String;
    fn write(&self) -> Json;
    fn read(v: &Json, path: &str) -> Result<Self, String>;
}

macro_rules! scalars {
    ($($t:ty: $write:expr, $read:expr;)*) => {$(
        impl Scalar for $t {
            fn ty() -> String {
                stringify!($t).into()
            }
            fn write(&self) -> Json {
                let write: fn(&Self) -> Json = $write;
                write(self)
            }
            fn read(v: &Json, path: &str) -> Result<Self, String> {
                let read: fn(&Json, &str) -> Result<Self, String> = $read;
                read(v, path)
            }
        }
    )*};
}

scalars! {
    u64: |v| Json::U64(*v), |j, p| j.as_u64(p);
    u32: |v| Json::U64(u64::from(*v)), |j, p| j.as_uint(p);
    u8: |v| Json::U64(u64::from(*v)), |j, p| j.as_uint(p);
    f64: |v| Json::F64(*v), |j, p| j.as_f64(p);
    bool: |v| Json::Bool(*v), |j, p| j.as_bool(p);
    String: |v| Json::Str(v.clone()), |j, p| j.as_str(p).map(String::from);
    Option<u64>: |v| v.map_or(Json::Null, Json::U64), |j, p| match j {
        Json::Null => Ok(None),
        j => j.as_u64(p).map(Some),
    };
    Vec<u32>: |v| Json::Arr(v.iter().map(|n| Json::U64(u64::from(*n))).collect()), |j, p| {
        let items = j.as_arr(p)?.iter().enumerate();
        items.map(|(i, x)| x.as_uint(&format!("{p}[{i}]"))).collect()
    };
}

/// A key of the format. A flat key names its own value in errors but
/// adds no segment to its members' paths: `weather.stormy.days`, not
/// `weather.regime.stormy.days`.
#[derive(Clone, Copy)]
pub(crate) struct Key {
    name: &'static str,
    flat: bool,
}

impl From<&'static str> for Key {
    fn from(name: &'static str) -> Key {
        Key { name, flat: false }
    }
}

pub(crate) fn flat(name: &'static str) -> Key {
    Key { name, flat: true }
}

/// One field of the format, as the declarations state it.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The path errors name it by.
    pub path: String,
    /// Where it sits in the JSON document.
    pub at: Vec<Step>,
    /// Its type (a union's: the forms of the arms listed).
    pub ty: String,
    /// The rules on its value alone.
    pub rules: &'static [Rule],
    /// What the spec writes there; `None` where its members write.
    pub value: Option<Json>,
}

pub(crate) type Res = Result<(), String>;

/// A declaration: the fields of one spec type, stated to a [`Cx`].
pub(crate) type Declare<T> = fn(&mut T, &mut Cx) -> Res;

/// One object of the format under a pass over the declarations:
/// read from `src` into the typed spec, or (no `src`) listed.
pub(crate) struct Cx {
    src: Option<ObjReader>,
    /// List every union arm, a blank option and one blank array
    /// element instead of what the spec holds (the format's table).
    every_arm: bool,
    /// The members' path prefix, and the object's place.
    at: String,
    loc: Vec<Step>,
    /// Fields met so far, each with what the spec holds.
    fields: Vec<Field>,
    /// The tag a union arm's declaration wrote, and whether bare.
    arm: Option<(&'static str, bool)>,
    /// Only learn that tag: nested objects are not entered.
    probe: bool,
}

impl Cx {
    /// The fields met, once the top object's leftover keys are refused.
    pub(crate) fn finish(self) -> Result<Vec<Field>, String> {
        self.src.map_or(Ok(()), ObjReader::finish)?;
        Ok(self.fields)
    }

    /// An object at `at` / `loc` (the top one: empty both), read from
    /// `src` or listed.
    pub(crate) fn new(src: Option<ObjReader>, every_arm: bool, at: String, loc: Vec<Step>) -> Cx {
        let (fields, arm, probe) = (Vec::new(), None, false);
        Cx {
            src,
            every_arm,
            at,
            loc,
            fields,
            arm,
            probe,
        }
    }

    /// Member `k`'s own path, its members' prefix and its place.
    fn place(&self, k: Key) -> (String, String, Vec<Step>) {
        let own = match self.at.as_str() {
            "" => k.name.to_string(),
            at => format!("{at}.{}", k.name),
        };
        let at = if k.flat { self.at.clone() } else { own.clone() };
        (own, at, [&self.loc[..], &[Step::Key(k.name)]].concat())
    }

    /// Member `k`'s value, when reading.
    fn take(&mut self, k: Key) -> Result<Option<Json>, String> {
        self.src.as_mut().map(|r| r.take(k.name)).transpose()
    }

    /// A nested object: read from `v` (errors name it `own`), or listed.
    fn child(&self, v: Option<Json>, own: &str, at: String, loc: Vec<Step>) -> Result<Cx, String> {
        let src = v.map(|v| v.into_obj(own)).transpose()?;
        Ok(Cx::new(src, self.every_arm, at, loc))
    }

    /// Fold a finished child back: its fields kept, leftover keys
    /// refused.
    fn close(&mut self, c: Cx) -> Res {
        self.fields.extend(c.fields);
        c.src.map_or(Ok(()), ObjReader::finish)
    }

    fn row(&mut self, path: String, at: Vec<Step>, ty: String, value: Option<Json>) -> &mut Field {
        let rules = &[];
        self.fields.push(Field {
            path,
            at,
            ty,
            rules,
            value,
        });
        self.fields.last_mut().expect("pushed")
    }

    /// A leaf value.
    pub(crate) fn field<T: Scalar>(
        &mut self,
        k: impl Into<Key>,
        v: &mut T,
        rules: &'static [Rule],
    ) -> Res {
        let k = k.into();
        let (own, _, loc) = self.place(k);
        match self.take(k)? {
            Some(j) => *v = T::read(&j, &own)?,
            None => self.row(own, loc, T::ty(), Some(v.write())).rules = rules,
        }
        Ok(())
    }

    /// A key whose one legal value is `value`: no field of the typed
    /// spec carries it.
    pub(crate) fn constant(&mut self, k: &'static str, value: bool, why: &str) -> Res {
        let (own, _, loc) = self.place(k.into());
        match self.take(k.into())? {
            Some(j) if j.as_bool(&own)? != value => {
                return Err(format!("{own}: must be {value} ({why})"))
            }
            Some(_) => {}
            None => {
                self.row(own, loc, value.to_string(), Some(Json::Bool(value)));
            }
        }
        Ok(())
    }

    /// An object whose members `f` declares.
    pub(crate) fn object(&mut self, k: impl Into<Key>, f: impl FnOnce(&mut Cx) -> Res) -> Res {
        let k = k.into();
        let (own, at, loc) = self.place(k);
        self.arm = Some((k.name, false));
        if self.probe {
            return Ok(());
        }
        let v = self.take(k)?;
        let mut c = self.child(v, &own, at, loc)?;
        f(&mut c)?;
        self.close(c)
    }

    /// `null`, or an object whose members `f` declares.
    pub(crate) fn option<T>(
        &mut self,
        k: &'static str,
        v: &mut Option<T>,
        blank: fn() -> T,
        f: Declare<T>,
    ) -> Res {
        let (own, at, loc) = self.place(k.into());
        let j = self.take(k.into())?;
        if let Some(j) = &j {
            *v = (*j != Json::Null).then(blank);
        } else {
            if self.every_arm {
                *v = Some(blank());
            }
            let null = v.is_none().then_some(Json::Null);
            self.row(own.clone(), loc.clone(), "object or null".into(), null);
        }
        let Some(x) = v else { return Ok(()) };
        let mut c = self.child(j.filter(|j| *j != Json::Null), &own, at, loc)?;
        f(x, &mut c)?;
        self.close(c)
    }

    /// An array of objects whose members `f` declares.
    pub(crate) fn list<T>(
        &mut self,
        k: &'static str,
        v: &mut Vec<T>,
        blank: fn() -> T,
        f: Declare<T>,
    ) -> Res {
        let (own, _, loc) = self.place(k.into());
        self.arm = Some((k, false));
        if self.probe {
            return Ok(());
        }
        let items: Vec<Option<Json>> = match self.take(k.into())? {
            Some(j) => j.as_arr(&own)?.iter().cloned().map(Some).collect(),
            None => {
                let empty = Some(Json::Arr(Vec::new()));
                self.row(own.clone(), loc.clone(), "array".into(), empty);
                vec![None; if self.every_arm { 1 } else { v.len() }]
            }
        };
        v.resize_with(items.len(), blank);
        for (i, (x, j)) in v.iter_mut().zip(items).enumerate() {
            let index = if self.every_arm {
                "i".into()
            } else {
                i.to_string()
            };
            let own = format!("{own}[{index}]");
            let loc = [&loc[..], &[Step::Index(i)]].concat();
            let mut c = self.child(j, &own, own.clone(), loc)?;
            f(x, &mut c)?;
            self.close(c)?;
        }
        Ok(())
    }

    /// A tagged union: `f` declares each arm as one `tag`, `object` or
    /// `list` call, and `arms` holds a blank value of every arm.
    pub(crate) fn union<T: Clone>(
        &mut self,
        k: impl Into<Key>,
        v: &mut T,
        arms: &[T],
        f: Declare<T>,
    ) -> Res {
        let k = k.into();
        let (own, at, loc) = self.place(k);
        if let Some(j) = self.take(k)? {
            let is_written_arm = |arm: &T| {
                let mut c = Cx::new(None, false, at.clone(), loc.clone());
                c.probe = true;
                f(&mut arm.clone(), &mut c).ok();
                match (c.arm, &j) {
                    (Some((tag, true)), Json::Str(s)) => s == tag,
                    (Some((tag, false)), Json::Obj(m)) => m.iter().any(|(k, _)| k == tag),
                    _ => false,
                }
            };
            let arm = arms.iter().find(|arm| is_written_arm(arm));
            *v = arm.ok_or_else(|| unknown(&own, &j))?.clone();
            // A bare string has no members to read.
            let members = Some(j).filter(|j| matches!(j, Json::Obj(_)));
            let mut c = self.child(members, &own, at, loc)?;
            f(v, &mut c)?;
            return self.close(c);
        }
        let current = [v.clone()];
        let (mut forms, mut rows, mut bare) = (Vec::new(), Vec::new(), None);
        for arm in if self.every_arm { arms } else { &current } {
            *v = arm.clone();
            let mut c = self.child(None, &own, at.clone(), loc.clone())?;
            f(v, &mut c)?;
            let (tag, is_bare) = c.arm.expect("an arm declares its form");
            bare = is_bare.then(|| Json::Str(tag.into()));
            forms.push(if is_bare {
                format!("\"{tag}\"")
            } else {
                format!("{{\"{tag}\": …}}")
            });
            rows.extend(c.fields);
        }
        self.row(own, loc, forms.join(" or "), bare);
        self.fields.extend(rows);
        Ok(())
    }

    /// A union arm written as the bare string `t`.
    pub(crate) fn tag(&mut self, t: &'static str) -> Res {
        self.arm = Some((t, true));
        Ok(())
    }
}

fn unknown(path: &str, v: &Json) -> String {
    match v {
        Json::Str(s) => format!("{path}: unknown variant \"{s}\""),
        Json::Obj(m) => {
            let keys: Vec<&String> = m.iter().map(|(k, _)| k).collect();
            format!("{path}: no known variant among {keys:?}")
        }
        other => format!("{path}: expected a variant, got {other:?}"),
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
