//! E21 — the scenario matrix: every catalog scenario run to a
//! scorecard, gated on floors and rerun byte-identity.
//!
//! For each entry in the scenario catalog (`tssdn-scenario`) the
//! runner builds the spec's world twice from scratch, runs both to the
//! spec's horizon, and renders both scorecards to JSON. Three gates,
//! any failure exits nonzero:
//!
//! * **identity** — the two renderings are byte-identical (the
//!   determinism contract extended to every scorecard row);
//! * **floors** — the scorecard meets the entry's `ScorecardFloors`:
//!   per-scenario service minimums plus the invariant rows (Control
//!   goodput ≥ 0.99 whenever offered, SNF conservation, custody ledger
//!   balance, no stale alternate routes);
//! * **spec round-trip** — the spec survives JSON encode/decode
//!   losslessly (the artifact on disk reconstructs the same world).
//!
//! Artifacts: `<out>/scorecards/<name>.json` (spec + floors +
//! scorecard per scenario) and `<out>/scorecards/summary.csv` (one row
//! per scenario). Each scenario's share of wall-clock per orchestrator
//! stage (`Orchestrator::stage_wall`) goes to stderr only.
//!
//! Flags: `--smoke` runs the small 4-scenario CI subset; `--only NAME`
//! runs a single scenario by catalog name; `--out DIR` overrides the
//! artifact directory (default `artifact_out`).
//!
//! **Diff mode** (`scenario_matrix --diff OLD_DIR NEW_DIR`) compares
//! two scorecard directories (as written by a matrix run) and exits
//! nonzero on regressions *finer than floor granularity*: floors sit
//! ~20 % below measured values, so a change can shave 15 % off
//! goodput and still pass every floor — the diff catches it at a 2 %
//! absolute tolerance on ratio metrics (5 % relative on delivered
//! bits, +10 %+60 s on recovery p95, +2 on disruptions). Invariant
//! rows (SNF conservation, custody balance, zero stale alternates)
//! are exact. A scenario missing from NEW, or whose spec changed
//! without its baseline being regenerated, is a failure too. CI runs
//! it against the committed `baselines/scorecards/`.

use std::fmt::Write as _;
use std::path::Path;

use tssdn_core::Orchestrator;
use tssdn_scenario::json::{parse, Json};
use tssdn_scenario::{catalog, run_scenario, scorecard, smoke_catalog, CatalogEntry, ScenarioSpec};

// ---------------------------------------------------------------- //
// Diff mode                                                        //
// ---------------------------------------------------------------- //

/// Lenient object field lookup (the strict `ObjReader` is for codecs;
/// the diff only navigates).
fn get<'a>(j: &'a Json, key: &str) -> Option<&'a Json> {
    match j {
        Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A numeric metric that may be JSON null.
fn num(j: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = j;
    for key in path {
        cur = get(cur, key)?;
    }
    match cur {
        Json::Null => None,
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

fn flag(j: &Json, path: &[&str]) -> Option<bool> {
    let mut cur = j;
    for key in path {
        cur = get(cur, key)?;
    }
    match cur {
        Json::Bool(b) => Some(*b),
        _ => None,
    }
}

/// Load every scorecard artifact in a directory: `name -> parsed`.
fn load_dir(dir: &Path) -> Vec<(String, Json)> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        eprintln!("--diff: cannot read {}: {e}", dir.display());
        std::process::exit(2);
    });
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("read scorecard artifact");
        let parsed = parse(&text).unwrap_or_else(|e| {
            eprintln!("--diff: {} is not valid JSON: {e}", path.display());
            std::process::exit(2);
        });
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("?")
            .to_string();
        out.push((name, parsed));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Compare two scorecard directories; returns the regression count.
fn diff_dirs(old_dir: &Path, new_dir: &Path) -> usize {
    let old = load_dir(old_dir);
    let new = load_dir(new_dir);
    if old.is_empty() {
        eprintln!("--diff: no scorecard artifacts in {}", old_dir.display());
        std::process::exit(2);
    }
    let mut regressions = 0;
    let mut flag_regression = |name: &str, msg: String| {
        eprintln!("  REGRESSION {name}: {msg}");
        regressions += 1;
    };

    for (name, old_card) in &old {
        let Some((_, new_card)) = new.iter().find(|(n, _)| n == name) else {
            flag_regression(name, "scenario missing from new scorecards".into());
            continue;
        };

        // A changed spec means the comparison is apples-to-oranges;
        // the same PR that changes a spec must regenerate baselines.
        if get(old_card, "spec") != get(new_card, "spec") {
            flag_regression(
                name,
                "spec changed without regenerating the baseline".into(),
            );
            continue;
        }

        // Ratio metrics: 2 % absolute tolerance, an order tighter
        // than the ~20 % floor margin. Improvements always pass;
        // a metric going from measured to null is a regression.
        for metric in [
            "goodput",
            "control_goodput",
            "bulk_goodput",
            "link_availability",
            "data_availability",
        ] {
            let o = num(old_card, &["scorecard", metric]);
            let n = num(new_card, &["scorecard", metric]);
            match (o, n) {
                (Some(o), Some(n)) if n < o - 0.02 => {
                    flag_regression(name, format!("{metric} {o:.4} -> {n:.4}"));
                }
                (Some(o), None) => {
                    flag_regression(name, format!("{metric} {o:.4} -> null"));
                }
                _ => {}
            }
        }

        if let (Some(o), Some(n)) = (
            num(old_card, &["scorecard", "delivered_bits"]),
            num(new_card, &["scorecard", "delivered_bits"]),
        ) {
            if n < o * 0.95 {
                flag_regression(name, format!("delivered_bits {o:.0} -> {n:.0}"));
            }
        }
        if let (Some(o), Some(n)) = (
            num(old_card, &["scorecard", "recovery_p95_s"]),
            num(new_card, &["scorecard", "recovery_p95_s"]),
        ) {
            if n > o * 1.10 + 60.0 {
                flag_regression(name, format!("recovery_p95_s {o:.0} -> {n:.0}"));
            }
        }
        if let (Some(o), Some(n)) = (
            num(old_card, &["scorecard", "disruptions"]),
            num(new_card, &["scorecard", "disruptions"]),
        ) {
            if n > o + 2.0 {
                flag_regression(name, format!("disruptions {o:.0} -> {n:.0}"));
            }
        }

        // Invariant rows: exact.
        if num(new_card, &["scorecard", "stale_alt_routes"]) != Some(0.0) {
            flag_regression(name, "stale_alt_routes != 0".into());
        }
        if flag(new_card, &["scorecard", "snf", "conserved"]) != Some(true) {
            flag_regression(name, "SNF ledger not conserved".into());
        }
        if flag(new_card, &["scorecard", "custody", "balanced"]) != Some(true) {
            flag_regression(name, "custody ledger not balanced".into());
        }
        println!("{name:<20} compared");
    }

    for (name, _) in &new {
        if !old.iter().any(|(n, _)| n == name) {
            println!("{name:<20} new scenario (no baseline yet)");
        }
    }
    regressions
}

/// Each stage's share of the wall-clock a run spent in its stages, in
/// stage order.
fn stage_shares(world: &Orchestrator) -> String {
    let stages = world.stage_wall();
    let total: f64 = stages.iter().map(|(_, t)| t.as_secs_f64()).sum();
    stages
        .iter()
        .map(|(name, t)| format!("{name} {:.1}%", 100.0 * t.as_secs_f64() / total))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Re-indent a pretty JSON blob for embedding inside an object.
fn indent(text: &str, pad: &str) -> String {
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            if i == 0 {
                l.to_string()
            } else {
                format!("{pad}{l}")
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut out_dir = "artifact_out".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--diff" => {
                let (old_dir, new_dir) = match (args.get(i + 1), args.get(i + 2)) {
                    (Some(o), Some(n)) => (Path::new(o), Path::new(n)),
                    _ => {
                        eprintln!("--diff needs OLD_DIR and NEW_DIR");
                        std::process::exit(2);
                    }
                };
                println!("# E21 diff: {} -> {}", old_dir.display(), new_dir.display());
                let regressions = diff_dirs(old_dir, new_dir);
                if regressions > 0 {
                    eprintln!("scorecard diff FAILED: {regressions} regression(s)");
                    std::process::exit(1);
                }
                println!("scorecard diff: no regressions");
                return;
            }
            "--smoke" => smoke = true,
            "--only" => {
                only = Some(
                    args.get(i + 1)
                        .unwrap_or_else(|| {
                            eprintln!("--only needs a scenario name");
                            std::process::exit(2);
                        })
                        .clone(),
                );
                i += 1;
            }
            "--out" => {
                out_dir = args
                    .get(i + 1)
                    .unwrap_or_else(|| {
                        eprintln!("--out needs a directory");
                        std::process::exit(2);
                    })
                    .clone();
                i += 1;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let mut entries: Vec<CatalogEntry> = if smoke { smoke_catalog() } else { catalog() };
    if let Some(name) = &only {
        let before: Vec<String> = entries.iter().map(|e| e.spec.name.clone()).collect();
        entries.retain(|e| &e.spec.name == name);
        if entries.is_empty() {
            eprintln!(
                "--only {name}: no such scenario; known: {}",
                before.join(", ")
            );
            std::process::exit(2);
        }
    }

    let score_dir = Path::new(&out_dir).join("scorecards");
    std::fs::create_dir_all(&score_dir).expect("create scorecard dir");

    println!(
        "# E21: scenario matrix — {} scenario(s), mode {}",
        entries.len(),
        if smoke { "smoke" } else { "full" },
    );

    let mut failed = false;
    let mut csv = String::new();
    let _ = writeln!(
        csv,
        "{}",
        tssdn_telemetry::Scorecard::summary_header().join(",")
    );

    for entry in &entries {
        let name = &entry.spec.name;
        print!("{name:<20} ");

        // Round-trip gate: the artifact's spec JSON reconstructs the
        // same spec (and therefore the same world).
        let spec_json = entry.spec.to_json();
        match ScenarioSpec::from_json(&spec_json) {
            Ok(back) if back == entry.spec => {}
            Ok(_) => {
                println!("ROUND-TRIP VIOLATION (decoded spec differs)");
                failed = true;
                continue;
            }
            Err(e) => {
                println!("ROUND-TRIP VIOLATION ({e})");
                failed = true;
                continue;
            }
        }

        // Identity gate: two from-scratch runs render byte-identical
        // scorecard JSON. The first is stepped here so its stage
        // timers can be reported (stderr: wall-clock stays out of
        // every artifact).
        let mut world = entry.spec.build();
        world.run_until(entry.spec.end_time());
        let card = scorecard(&entry.spec, &world);
        eprintln!("  stages {name}: {}", stage_shares(&world));
        drop(world);
        let card_json = card.to_json();
        let rerun_json = run_scenario(&entry.spec).to_json();
        let identical = card_json == rerun_json;
        if !identical {
            failed = true;
        }

        // Floor gate.
        let violations = entry.floors.violations(&card);
        if !violations.is_empty() {
            failed = true;
        }

        println!(
            "goodput {} ctl {} avail {} disruptions {:>4}  identity {}  floors {}",
            card.goodput.map_or("-".into(), |g| format!("{g:.3}")),
            card.control_goodput
                .map_or("-".into(), |g| format!("{g:.3}")),
            card.data_availability
                .map_or("-".into(), |a| format!("{a:.3}")),
            card.disruptions,
            if identical { "HELD" } else { "VIOLATED" },
            if violations.is_empty() {
                "HELD"
            } else {
                "VIOLATED"
            },
        );
        for v in &violations {
            eprintln!("  FLOOR {name}: {v}");
        }
        if !identical {
            eprintln!("  IDENTITY {name}: rerun scorecard JSON differs");
        }

        let artifact = format!(
            "{{\n  \"spec\": {},\n  \"floors\": {},\n  \"scorecard\": {}\n}}\n",
            indent(&spec_json, "  "),
            indent(&entry.floors.to_json(), "  "),
            indent(&card_json, "  "),
        );
        let path = score_dir.join(format!("{name}.json"));
        std::fs::write(&path, artifact).expect("write scorecard artifact");

        let _ = writeln!(csv, "{}", card.summary_row().join(","));
    }

    let csv_path = score_dir.join("summary.csv");
    std::fs::write(&csv_path, csv).expect("write summary csv");
    println!(
        "wrote {} scorecard(s) + {}",
        entries.len(),
        csv_path.display()
    );

    if failed {
        eprintln!("scenario matrix FAILED");
        std::process::exit(1);
    }
    println!("scenario matrix: all gates held");
}
