//! A strict JSON layer for the workspace's documents: the scenario
//! spec (`tssdn-scenario`), the scorecard and its floors
//! (`tssdn-telemetry`), the scenario matrix's artifacts and the e2e
//! benchmark's reports. It depends on nothing, so any crate can write
//! through it.
//!
//! Third-party deps are vendored and serde is deliberately not among
//! them (vendor/README.md), so this crate carries its own small JSON
//! value type, parser and writer. The design goals differ from a
//! general-purpose library's:
//!
//! * **Lossless numbers** — `u64` seeds and bit counters must survive
//!   a round trip exactly, so integers are kept as `U64`/`I64` and
//!   never widened through `f64`. Floats are written with Rust's
//!   shortest round-trip formatting (`{:?}`), which `str::parse::<f64>`
//!   reads back to the identical bits.
//! * **Strict objects** — duplicate keys are a parse error, and the
//!   [`ObjReader`] consumption helper makes *unknown* keys an error at
//!   decode time: a typo'd field fails loudly instead of being
//!   silently ignored (the classic config-file foot-gun).
//! * **Bounded nesting** — arrays and objects nest at most
//!   [`MAX_DEPTH`] deep; a hostile `[[[[…` is a parse error, not a
//!   stack overflow.
//! * **Declared documents** — a [`Document`] states each field once
//!   to a [`Cx`] (key, type, [`Rule`]s, [`Compare`]); reading it and
//!   listing it as [`Field`]s are the two passes over that statement,
//!   and writing, checking, the field tables and `--diff` read the
//!   listing.

mod declare;
mod json;

pub use declare::{
    fits_ms, flat, rows, Compare, Cx, Declare, Field, Key, Res, Rule, Scalar, HOUR_MS, MIN_MS,
};
pub use json::{parse, Json, ObjReader, Step, MAX_DEPTH};

/// A document type: it states each of its fields once, in
/// [`Document::declare`], and is read, listed, written, tabled and
/// compared from that statement.
pub trait Document: Clone + Default {
    /// What errors call the top object.
    const NAME: &'static str;

    /// State each field to `cx`, in the order the document writes
    /// them. Destructure `self`, so that a field added without a
    /// declaration does not compile.
    fn declare(&mut self, cx: &mut Cx) -> Res;

    /// The fields, this value's or (`every_arm`) the format's: every
    /// union arm, a blank option and one blank array element.
    fn list(&self, every_arm: bool) -> Vec<Field> {
        let mut cx = Cx::new(None, every_arm, String::new(), Vec::new());
        let listed = self.clone().declare(&mut cx).and_then(|()| cx.finish());
        listed.expect("listing reads nothing")
    }

    /// The fields this value carries, in the order the document writes
    /// them: path, place, type, rules, comparison and value.
    fn fields(&self) -> Vec<Field> {
        self.list(false)
    }

    /// Render to pretty JSON. [`Document::decode`] reads it back to an
    /// equal value (lossless round trip).
    fn to_json(&self) -> String {
        let fields = self.fields();
        let rows: Vec<&[Step]> = (fields.iter().filter(|f| f.rows))
            .map(|f| &f.at[..])
            .collect();
        let mut doc = Json::Obj(Vec::new());
        for f in &fields {
            if let Some(v) = &f.value {
                doc.set(&f.at, v.clone());
            }
        }
        doc.to_text_with_rows(&rows)
    }

    /// Read a document's structure — keys, types, union tags — without
    /// checking its values: a missing or unknown key, a wrong type or
    /// an unknown tag is an error naming its path.
    fn decode(text: &str) -> Result<Self, String> {
        let top = parse(text)?.into_obj(Self::NAME)?;
        let mut cx = Cx::new(Some(top), false, String::new(), Vec::new());
        let mut doc = Self::default();
        doc.declare(&mut cx)?;
        cx.finish()?;
        Ok(doc)
    }

    /// Every field of the format, over every union arm, as a Markdown
    /// table: path, type and a column `col` that `cell` fills.
    fn table(col: &str, cell: impl Fn(&Field) -> String) -> String {
        let mut rows: Vec<String> = (Self::default().list(true).iter())
            .map(|f| format!("| `{}` | {} | {} |", f.path, f.ty, cell(f)))
            .collect();
        rows.dedup();
        format!(
            "| path | type | {col} |\n|---|---|---|\n{}\n",
            rows.join("\n")
        )
    }

    /// Where `new` regressed from `self`, one message per row past its
    /// declared [`Compare`]: kind by kind in the order of its variants,
    /// each kind in declaration order.
    fn regressions(&self, new: &Self) -> Vec<String> {
        let old = self.fields();
        let mut found: Vec<(u8, String)> = (new.fields().into_iter())
            .filter_map(|n| {
                let how = n.compare?;
                let o = old.iter().find(|o| o.at == n.at)?;
                let msg = how.regressed(&n.path, o.value.as_ref()?, n.value.as_ref()?)?;
                Some((how.rank(), msg))
            })
            .collect();
        found.sort_by_key(|(rank, _)| *rank);
        found.into_iter().map(|(_, msg)| msg).collect()
    }
}
