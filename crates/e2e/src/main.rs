//! `tssdn-e2e`: the whole-loop benchmark of record.
//!
//! ```text
//! tssdn-e2e --list
//! tssdn-e2e --all [--seed N] [--smoke]
//! tssdn-e2e --workload NAME [--seed N] [--smoke]
//! tssdn-e2e --workload NAME --trace 0|1 [--seed N] [--seconds S] [--smoke]
//! tssdn-e2e --compare A.json B.json
//! ```
//!
//! `--all` (or `--workload NAME` alone) is the suite: it re-executes
//! this binary once per workload × {untraced, traced}, so peak RSS is
//! per run, then merges the two result files, adds the checks and
//! metrics that need both runs, prints every metric and writes
//! `artifact_out/e2e/results.json`. With `--trace` it is one run in
//! this process — the form `BENCHMARK.json`'s driver calls — ending in
//! the driver's one-line JSON result. See `README.md` beside this
//! crate for every metric and workload.

mod checks;
mod compare;
mod host;
mod metrics;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::{Command, ExitCode, Stdio};

use checks::Checks;
use metrics::{Metrics, TRACE_OVERHEAD};
use report::{Manifest, Merged};
use workload::{Workload, DEFAULT_SEED, WORKLOADS};

const USAGE: &str = "usage: tssdn-e2e --list | --all [--seed N] [--smoke] | \
--workload NAME [--trace 0|1] [--seed N] [--seconds S] [--smoke] | --compare A.json B.json";

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    list: bool,
    all: bool,
    workload: Option<String>,
    trace: Option<bool>,
    seed: Option<u64>,
    smoke: bool,
    compare: Option<(String, String)>,
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => args.list = true,
            "--all" => args.all = true,
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed: bad integer \"{v}\""))?,
                );
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got \"{other}\"")),
                });
            }
            // The driver's nominal run length. The measured windows
            // are fixed simulated work calibrated to it (README,
            // "Windows"), so that sim metrics and counts repeat
            // exactly; the flag is checked and otherwise unused.
            "--seconds" => {
                let v = value()?;
                v.parse::<u64>()
                    .map_err(|_| format!("--seconds: bad integer \"{v}\""))?;
            }
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    Ok(args)
}

/// One run in this process. Returns whether every check passed.
fn single(w: &Workload, traced: bool, seed: u64, smoke: bool) -> Result<bool, String> {
    let manifest = Manifest::capture(seed, smoke);
    manifest.print(&[w]);
    let steps = w.window_steps(smoke);
    let mut out = if traced {
        run::run_traced(w, seed, steps, run::SETUPS)
    } else {
        run::run_untraced(w, seed, steps, run::SETUPS)
    };
    out.checks
        .check(out.metrics.0.iter().all(|m| m.value.is_finite()), || {
            "a metric is not a finite number".into()
        });
    if !traced {
        out.metrics
            .set("ops_failed_share", out.checks.failed_share());
    }
    report::write_run(w, traced, &manifest, &out)
        .map_err(|e| format!("{}: {e}", report::OUT_DIR))?;
    report::print_metrics(w.name, &out.metrics, smoke);
    report::print_checks(w.name, &out.checks);
    println!(
        "{}",
        report::contract_line(traced, &out.metrics, &out.checks)
    );
    Ok(out.checks.failed() == 0)
}

/// Both runs of each workload, each in its own process, merged.
fn suite(workloads: &[&Workload], seed: u64, smoke: bool) -> Result<bool, String> {
    let manifest = Manifest::capture(seed, smoke);
    manifest.print(workloads);
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut merged = Vec::new();
    for &w in workloads {
        for traced in [false, true] {
            eprintln!(
                "running {} ({})",
                w.name,
                if traced { "traced" } else { "untraced" }
            );
            // The child's own check failures exit 1 too; they come
            // back through its result file, so only a child that left
            // no file is an error here.
            let _ = std::fs::remove_file(report::run_file_path(w.name, traced));
            Command::new(&exe)
                .args(["--workload", w.name, "--seed", &seed.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .args(smoke.then_some("--smoke"))
                .stdout(Stdio::null())
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
        }
        let untraced = report::read_run(w.name, false)?;
        let traced = report::read_run(w.name, true)?;

        let mut checks = Checks::default();
        checks.absorb(&untraced.checks);
        checks.absorb(&traced.checks);
        checks.check(untraced.scorecard == traced.scorecard, || {
            "untraced and traced scorecards differ".into()
        });
        let mut end_to_end = untraced.metrics;
        end_to_end.0.retain(|m| m.name != "ops_failed_share");
        end_to_end.set("ops_failed_share", checks.failed_share());
        let mut per_layer = traced.metrics;
        per_layer.set(
            TRACE_OVERHEAD,
            stats::ratio(traced.run_until_wall_s, untraced.run_until_wall_s),
        );

        let mut all = Metrics(end_to_end.0.clone());
        all.0.extend(per_layer.0.iter().copied());
        report::print_metrics(w.name, &all, smoke);
        report::print_checks(w.name, &checks);
        merged.push(Merged {
            workload: w,
            end_to_end,
            per_layer,
            checks,
        });
    }
    let path = report::write_results(&manifest, &merged)
        .map_err(|e| format!("{}: {e}", report::OUT_DIR))?;
    let (attempted, failed) = merged.iter().fold((0, 0), |(a, f), m| {
        (a + m.checks.attempted, f + m.checks.failed())
    });
    println!("operations attempted={attempted} failed={failed}");
    println!("results {}", path.display());
    Ok(failed == 0)
}

fn dispatch(args: Args) -> Result<bool, String> {
    if args.list {
        report::print_list();
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let worse = compare::compare(a, b)?;
        println!("compare worse={worse}");
        return Ok(worse == 0);
    }
    let selected: Vec<&Workload> = match (&args.workload, args.all) {
        (Some(name), false) => {
            vec![Workload::find(name)
                .ok_or_else(|| format!("unknown workload \"{name}\" (see --list)"))?]
        }
        (None, true) => WORKLOADS.iter().collect(),
        _ => return Err(USAGE.into()),
    };
    if cfg!(debug_assertions) {
        return Err(
            "refusing to time a build with debug_assertions on; use `cargo run --release`".into(),
        );
    }
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    match args.trace {
        Some(traced) if !args.all => single(selected[0], traced, seed, args.smoke),
        Some(_) => Err(USAGE.into()),
        None => suite(&selected, seed, args.smoke),
    }
}

fn main() -> ExitCode {
    match parse_args(std::env::args().skip(1)).and_then(dispatch) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("tssdn-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_call_parses() {
        let a = parse("--workload kenya12_3day --seed 7 --seconds 30 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some("kenya12_3day".into()),
                trace: Some(true),
                seed: Some(7),
                ..Args::default()
            }
        );
        assert!(parse("--all --smoke").unwrap().smoke);
        let c = parse("--compare a.json b.json").unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }

    #[test]
    fn bad_command_lines_are_errors_not_defaults() {
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds soon",
            "--compare only-one.json",
            "--frobnicate",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
        // Nothing selected, both selected, or --trace on the suite.
        for bad in ["", "--all --workload dense50_morning", "--all --trace 0"] {
            assert!(dispatch(parse(bad).unwrap()).is_err(), "{bad}");
        }
        assert!(dispatch(parse("--workload nope").unwrap()).is_err());
    }
}
