//! Declared documents: a document type states each field once to a
//! [`Cx`] (key, type, [`Rule`]s, and for a document compared across
//! runs, its [`Compare`]); reading and listing are the two passes over
//! that statement, and writing and checking read the listing.

use crate::json::{Json, ObjReader, Step};

/// A minute and an hour, in milliseconds.
pub const MIN_MS: u64 = 60 * 1000;
pub const HOUR_MS: u64 = 60 * MIN_MS;

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
    pub fn check(self, v: &Json, p: &str) -> Result<(), String> {
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

    /// The rule in words, as the field table states it.
    pub fn describe(self) -> String {
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
pub fn fits_ms(units: Option<u64>, unit_ms: u64, ctx: &str) -> Result<(), String> {
    match units.and_then(|u| u.checked_mul(unit_ms)) {
        Some(_) => Ok(()),
        None => Err(format!("{ctx}: does not fit in u64 milliseconds")),
    }
}

/// How far a later document's value of a field may move from an
/// earlier one's before the move is a regression: what `scenario_matrix
/// --diff` holds each scorecard row to. Only a `FallBy` row counts a
/// measured value turning `null`; the others compare where both sides
/// measured.
#[derive(Debug, Clone, PartialEq)]
pub enum Compare {
    /// Not compared.
    Not,
    /// May fall by this much, absolute.
    FallBy(f64),
    /// May fall to this fraction of the earlier value.
    FallTo(f64),
    /// May rise to `.0` × the earlier value + `.1`.
    RiseTo(f64, f64),
    /// May rise by this much.
    RiseBy(f64),
    /// The later value must be this, whatever the earlier; the message
    /// says what broke.
    Is(Json, &'static str),
}

impl Compare {
    /// The regression, if `new` at `path` moved past the tolerance from
    /// `old`. A `FallBy` row is a ratio and prints to four places.
    pub(crate) fn regressed(&self, path: &str, old: &Json, new: &Json) -> Option<String> {
        let (o, n) = (old.as_f64(path).ok(), new.as_f64(path).ok());
        let moved = |o: f64, n: f64| format!("{path} {o:.0} -> {n:.0}");
        match (self, o, n) {
            (Compare::Is(want, says), ..) => (new != want).then(|| says.to_string()),
            (Compare::FallBy(_), Some(o), None) => Some(format!("{path} {o:.4} -> null")),
            (Compare::FallBy(by), Some(o), Some(n)) if n < o - by => {
                Some(format!("{path} {o:.4} -> {n:.4}"))
            }
            (Compare::FallTo(f), Some(o), Some(n)) if n < o * f => Some(moved(o, n)),
            (Compare::RiseTo(f, plus), Some(o), Some(n)) if n > o * f + plus => Some(moved(o, n)),
            (Compare::RiseBy(by), Some(o), Some(n)) if n > o + by => Some(moved(o, n)),
            _ => None,
        }
    }

    /// Where `--diff` reports the row's regressions: kind by kind, in
    /// the order of the variants.
    pub(crate) fn rank(&self) -> u8 {
        match self {
            Compare::Not => 0,
            Compare::FallBy(_) => 1,
            Compare::FallTo(_) => 2,
            Compare::RiseTo(..) => 3,
            Compare::RiseBy(_) => 4,
            Compare::Is(..) => 5,
        }
    }

    /// The comparison in words, as the field table states it.
    pub fn describe(&self) -> String {
        match self {
            Compare::Not => "not compared".into(),
            Compare::FallBy(by) => format!("may fall by {by}; measured → null regresses"),
            Compare::FallTo(f) => format!("may fall to × {f}"),
            Compare::RiseTo(f, plus) => format!("may rise to × {f} + {plus}"),
            Compare::RiseBy(by) => format!("may rise by {by}"),
            Compare::Is(want, _) => format!("must be {} on the new side", want.to_text()),
        }
    }
}

/// A leaf value of the format: its JSON type, how it is written and
/// how it is read.
pub trait Scalar: Sized {
    /// Its type, as the field table states it.
    fn ty() -> String;
    /// Its JSON form.
    fn write(&self) -> Json;
    /// Read from its JSON form; errors name `path`.
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
    Option<f64>: |v| v.map_or(Json::Null, Json::F64), |j, p| match j {
        Json::Null => Ok(None),
        j => j.as_f64(p).map(Some),
    };
    Vec<u32>: |v| Json::Arr(v.iter().map(|n| Json::U64(u64::from(*n))).collect()), |j, p| {
        let items = j.as_arr(p)?.iter().enumerate();
        items.map(|(i, x)| x.as_uint(&format!("{p}[{i}]"))).collect()
    };
}

/// A key of the format. A flat key names its own value in errors but
/// adds no segment to its members' paths: `weather.stormy.days`, not
/// `weather.regime.stormy.days`. A rows key names an array whose
/// elements are written one line each.
#[derive(Clone, Copy)]
pub struct Key {
    name: &'static str,
    flat: bool,
    rows: bool,
}

impl From<&'static str> for Key {
    fn from(name: &'static str) -> Key {
        let (flat, rows) = (false, false);
        Key { name, flat, rows }
    }
}

/// A flat key.
pub fn flat(name: &'static str) -> Key {
    let mut k = Key::from(name);
    k.flat = true;
    k
}

/// A rows key.
pub fn rows(name: &'static str) -> Key {
    let mut k = Key::from(name);
    k.rows = true;
    k
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
    /// How `--diff` compares it, where the declaration says.
    pub compare: Option<Compare>,
    /// An array whose elements are written one line each.
    pub rows: bool,
    /// What the document writes there; `None` where its members write.
    pub value: Option<Json>,
}

/// What a declaration returns: the first error, naming its path.
pub type Res = Result<(), String>;

/// A declaration: the fields of one document type, stated to a [`Cx`].
pub type Declare<T> = fn(&mut T, &mut Cx) -> Res;

/// One object of the format under a pass over the declarations:
/// read from `src` into the typed document, or (no `src`) listed.
pub struct Cx {
    src: Option<ObjReader>,
    /// List every union arm, a blank option and one blank array
    /// element instead of what the document holds (the format's table).
    every_arm: bool,
    /// The members' path prefix, and the object's place.
    at: String,
    loc: Vec<Step>,
    /// Fields met so far, each with what the document holds.
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
        let (rules, compare, rows) = (&[], None, false);
        self.fields.push(Field {
            path,
            at,
            ty,
            rules,
            compare,
            rows,
            value,
        });
        self.fields.last_mut().expect("pushed")
    }

    /// A leaf value.
    pub fn field<T: Scalar>(
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

    /// A leaf value of a document compared across runs, and how.
    pub fn compared<T: Scalar>(&mut self, k: &'static str, v: &mut T, how: Compare) -> Res {
        self.field(k, v, &[])?;
        if self.src.is_none() {
            self.fields.last_mut().expect("listed").compare = Some(how);
        }
        Ok(())
    }

    /// A key whose one legal value is `value`: no field of the typed
    /// document carries it.
    pub fn constant(&mut self, k: &'static str, value: bool, why: &str) -> Res {
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
    pub fn object(&mut self, k: impl Into<Key>, f: impl FnOnce(&mut Cx) -> Res) -> Res {
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
    pub fn option<T>(
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
    pub fn list<T>(
        &mut self,
        k: impl Into<Key>,
        v: &mut Vec<T>,
        blank: fn() -> T,
        f: Declare<T>,
    ) -> Res {
        let k = k.into();
        let (own, _, loc) = self.place(k);
        self.arm = Some((k.name, false));
        if self.probe {
            return Ok(());
        }
        let items: Vec<Option<Json>> = match self.take(k)? {
            Some(j) => j.as_arr(&own)?.iter().cloned().map(Some).collect(),
            None => {
                let empty = Some(Json::Arr(Vec::new()));
                self.row(own.clone(), loc.clone(), "array".into(), empty)
                    .rows = k.rows;
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
    pub fn union<T: Clone>(
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
    pub fn tag(&mut self, t: &'static str) -> Res {
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
