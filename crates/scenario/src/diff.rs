//! The scenario matrix's artifact and `scenario_matrix --diff`.
//!
//! The matrix writes one [`Artifact`] per scenario: the spec it ran,
//! the floors it was held to and its scorecard, in one document.
//! `--diff` reads two directories of them, strictly — a missing,
//! unknown or mistyped key anywhere is an error naming its path — and
//! reports a regression *finer than floor granularity*: floors sit
//! ~20 % below measured values, so a change can shave 15 % off goodput
//! and still pass every floor. Each scorecard row's tolerance is its
//! declaration's [`Compare`](tssdn_json::Compare) (the table in
//! DESIGN.md §12). A scenario missing from NEW, or whose spec changed
//! without its baseline being regenerated, is a regression too.

use std::path::Path;

use tssdn_json::{Cx, Document, Res};
use tssdn_telemetry::{Scorecard, ScorecardFloors};

use crate::ScenarioSpec;

/// One scenario's matrix artifact, `<out>/scorecards/<name>.json`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Artifact {
    /// The spec the scenario ran.
    pub spec: ScenarioSpec,
    /// The floors it was held to.
    pub floors: ScorecardFloors,
    /// What it scored.
    pub scorecard: Scorecard,
}

#[rustfmt::skip]
impl Document for Artifact {
    const NAME: &'static str = "artifact";

    fn declare(&mut self, cx: &mut Cx) -> Res {
        let Artifact { spec, floors, scorecard } = self;
        cx.object("spec", |cx| spec.declare(cx))?;
        cx.object("floors", |cx| floors.declare(cx))?;
        cx.object("scorecard", |cx| scorecard.declare(cx))
    }
}

/// What `--diff` found.
#[derive(Debug, Default)]
pub struct Diff {
    /// Each regression, as `scenario: what`.
    pub regressions: Vec<String>,
    /// The scenarios compared, by name.
    pub compared: Vec<String>,
    /// The scenarios NEW has and OLD has not.
    pub added: Vec<String>,
}

/// Every artifact in `dir`, `(file stem, artifact)`, by name. Errors
/// name the file, and within it the path.
fn load_dir(dir: &Path) -> Result<Vec<(String, Artifact)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let fail = |e: String| format!("{}: {e}", path.display());
        let text = std::fs::read_to_string(&path).map_err(|e| fail(e.to_string()))?;
        let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("?");
        out.push((name.to_string(), Artifact::decode(&text).map_err(fail)?));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Compare the artifacts of two directories; an error (a directory
/// that cannot be read, a document that does not decode, no baseline
/// at all) is a usage failure, not a regression.
pub fn diff_dirs(old_dir: &Path, new_dir: &Path) -> Result<Diff, String> {
    let (old, new) = (load_dir(old_dir)?, load_dir(new_dir)?);
    if old.is_empty() {
        return Err(format!("no scorecard artifacts in {}", old_dir.display()));
    }
    Ok(compare(&old, &new))
}

/// Compare each OLD scenario with NEW's of the same name.
pub fn compare(old: &[(String, Artifact)], new: &[(String, Artifact)]) -> Diff {
    let mut diff = Diff::default();
    for (name, was) in old {
        let mut flag = |what: &str| diff.regressions.push(format!("{name}: {what}"));
        let Some((_, now)) = new.iter().find(|(n, _)| n == name) else {
            flag("scenario missing from new scorecards");
            continue;
        };
        // A changed spec means the comparison is apples-to-oranges;
        // the same change that edits a spec regenerates its baseline.
        if was.spec != now.spec {
            flag("spec changed without regenerating the baseline");
            continue;
        }
        for what in was.scorecard.regressions(&now.scorecard) {
            flag(&what);
        }
        diff.compared.push(name.clone());
    }
    let added = new.iter().filter(|(n, _)| !old.iter().any(|(o, _)| o == n));
    diff.added = added.map(|(n, _)| n.clone()).collect();
    diff
}
