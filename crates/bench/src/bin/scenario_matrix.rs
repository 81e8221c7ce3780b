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
//! **Profile mode** (`scenario_matrix --spec FILE`) runs one spec file
//! — a catalog artifact's `spec`, or an e2e workload such as
//! `crates/e2e/workloads/satdark100_day.json` — once to its horizon and
//! prints each stage's share of the loop's wall-clock on stdout. No
//! gate, no artifact.
//!
//! **Diff mode** (`scenario_matrix --diff OLD_DIR NEW_DIR`) compares
//! two scorecard directories (as written by a matrix run) with
//! `tssdn_scenario::diff`: exit 1 on a regression past a row's declared
//! tolerance (the table in DESIGN.md §12), a scenario missing from NEW
//! or a spec changed without its baseline; exit 2 on an artifact that
//! does not decode strictly. CI runs it against the committed
//! `baselines/scorecards/`.

use std::fmt::Write as _;
use std::path::Path;

use tssdn_core::Orchestrator;
use tssdn_json::Document;
use tssdn_scenario::diff::{diff_dirs, Artifact};
use tssdn_scenario::{catalog, run_scenario, scorecard, smoke_catalog, CatalogEntry, ScenarioSpec};

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

/// `--diff OLD_DIR NEW_DIR`: exit 1 on a regression, 2 on an artifact
/// that does not decode.
fn diff(old_dir: &Path, new_dir: &Path) {
    println!("# E21 diff: {} -> {}", old_dir.display(), new_dir.display());
    let diff = diff_dirs(old_dir, new_dir).unwrap_or_else(|e| {
        eprintln!("--diff: {e}");
        std::process::exit(2);
    });
    for r in &diff.regressions {
        eprintln!("  REGRESSION {r}");
    }
    for name in &diff.compared {
        println!("{name:<20} compared");
    }
    for name in &diff.added {
        println!("{name:<20} new scenario (no baseline yet)");
    }
    if !diff.regressions.is_empty() {
        let n = diff.regressions.len();
        eprintln!("scorecard diff FAILED: {n} regression(s)");
        std::process::exit(1);
    }
    println!("scorecard diff: no regressions");
}

/// `--spec FILE`: run the spec in `path` to its horizon and print where
/// the loop's wall-clock went.
fn profile_spec(path: &Path) {
    let fail = |msg: String| -> ! {
        eprintln!("--spec {}: {msg}", path.display());
        std::process::exit(2);
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| fail(e.to_string()));
    let spec = ScenarioSpec::from_json(&text).unwrap_or_else(|e| fail(e.to_string()));
    let mut world = spec.build();
    let started = std::time::Instant::now();
    world.run_until(spec.end_time());
    println!(
        "{}: {:.2} s wall for {} sim-h",
        spec.name,
        started.elapsed().as_secs_f64(),
        spec.duration_hours
    );
    println!("stages {}: {}", spec.name, stage_shares(&world));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut only: Option<String> = None;
    let mut out_dir = "artifact_out".to_string();
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(2);
    };
    let value = |at: usize, or: &str| args.get(at).cloned().unwrap_or_else(|| fail(or.into()));
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--diff" => {
                let or = "--diff needs OLD_DIR and NEW_DIR";
                let (old_dir, new_dir) = (value(i + 1, or), value(i + 2, or));
                return diff(Path::new(&old_dir), Path::new(&new_dir));
            }
            "--spec" => return profile_spec(Path::new(&value(i + 1, "--spec needs a spec file"))),
            "--smoke" => smoke = true,
            "--only" => {
                only = Some(value(i + 1, "--only needs a scenario name"));
                i += 1;
            }
            "--out" => {
                out_dir = value(i + 1, "--out needs a directory");
                i += 1;
            }
            other => fail(format!("unknown argument: {other}")),
        }
        i += 1;
    }

    let mut entries: Vec<CatalogEntry> = if smoke { smoke_catalog() } else { catalog() };
    if let Some(name) = &only {
        let before: Vec<String> = entries.iter().map(|e| e.spec.name.clone()).collect();
        entries.retain(|e| &e.spec.name == name);
        if entries.is_empty() {
            fail(format!(
                "--only {name}: no such scenario; known: {}",
                before.join(", ")
            ));
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

        let _ = writeln!(csv, "{}", card.summary_row().join(","));
        let artifact = Artifact {
            spec: entry.spec.clone(),
            floors: entry.floors,
            scorecard: card,
        };
        let path = score_dir.join(format!("{name}.json"));
        std::fs::write(&path, artifact.to_json() + "\n").expect("write scorecard artifact");
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
