//! Everything the benchmark writes: the provenance manifest, the
//! `workload metric value unit` lines, the per-run and suite result
//! files, and the driver's one-line result. JSON goes through the
//! scenario crate's strict value type, the same writer specs and
//! scorecards use.

use std::path::{Path, PathBuf};

use tssdn_scenario::json::{parse, Json};

use crate::checks::Checks;
use crate::host;
use crate::metrics::{self, Domain, Measured, MetricDef, Metrics, END_TO_END, PER_LAYER};
use crate::run::Outcome;
use crate::stats::{highest_supported_percentile, MIN_SAMPLES_BEYOND};
use crate::workload::{window_end, Workload, STEP, WINDOW_START, WORKLOADS};

/// Where result files and traces go, relative to the working
/// directory (the repo root under `cargo run`).
pub const OUT_DIR: &str = "artifact_out/e2e";

/// A JSON object from `(key, value)` pairs.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Field `key` of a JSON object.
pub fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, String> {
    match v {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing field \"{key}\"")),
        other => Err(format!("expected object with \"{key}\", got {other:?}")),
    }
}

/// The fields of a JSON object, in file order.
pub fn entries<'a>(v: &'a Json, ctx: &str) -> Result<&'a [(String, Json)], String> {
    match v {
        Json::Obj(fields) => Ok(fields),
        other => Err(format!("{ctx}: expected object, got {other:?}")),
    }
}

/// The value on one line. The pretty writer escapes every newline
/// inside strings, so the line breaks it emits are all structural and
/// can be dropped with their indentation.
pub fn compact(v: &Json) -> String {
    v.to_text().lines().map(str::trim_start).collect()
}

/// Where, when and from what a result was produced — the header the
/// legacy `BENCH_*.json` files lack.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// `git rev-parse HEAD` (`-dirty` if modified), or `unknown`.
    pub revision: String,
    /// `rustc -V`.
    pub rustc: String,
    /// `available_parallelism`: the program's scoped pools follow it.
    pub nproc: u64,
    /// The seed the workload instances were drawn from.
    pub seed: u64,
    /// `full`, or `smoke` (windows cut short; timings not comparable).
    pub mode: &'static str,
}

impl Manifest {
    /// Describe this process.
    pub fn capture(seed: u64, smoke: bool) -> Self {
        Manifest {
            revision: host::git_revision(),
            rustc: host::rustc_version(),
            nproc: host::nproc(),
            seed,
            mode: if smoke { "smoke" } else { "full" },
        }
    }

    /// Whether windows were cut short.
    pub fn smoke(&self) -> bool {
        self.mode == "smoke"
    }

    fn to_json(&self, workloads: &[&Workload]) -> Json {
        let windows = workloads
            .iter()
            .map(|w| {
                let steps = w.window_steps(self.smoke());
                (
                    w.name,
                    obj(vec![
                        ("start", Json::Str(WINDOW_START.to_string())),
                        ("end", Json::Str(window_end(steps).to_string())),
                        ("steps", Json::U64(steps as u64)),
                        (
                            "spawn_radius_km",
                            Json::F64(w.spec(self.seed).fleet.spawn_radius_km),
                        ),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("revision", Json::Str(self.revision.clone())),
            ("rustc", Json::Str(self.rustc.clone())),
            ("nproc", Json::U64(self.nproc)),
            ("seed", Json::U64(self.seed)),
            ("mode", Json::Str(self.mode.into())),
            ("step_s", Json::U64(STEP.as_ms() / 1000)),
            ("windows", obj(windows)),
        ])
    }

    /// Print the header — the same facts [`Manifest::to_json`] records
    /// — one `manifest key value` line each, one line per window.
    pub fn print(&self, workloads: &[&Workload]) {
        let plain = |v: &Json| match v {
            Json::Str(s) => s.clone(),
            other => compact(other),
        };
        let Json::Obj(facts) = self.to_json(workloads) else {
            unreachable!("to_json builds an object");
        };
        for (key, value) in &facts {
            match value {
                Json::Obj(windows) => {
                    for (name, window) in windows {
                        println!("manifest window {name} {}", compact(window));
                    }
                }
                scalar => println!("manifest {key} {}", plain(scalar)),
            }
        }
    }
}

fn measured_json(m: &Measured, def: &MetricDef) -> Json {
    let mut fields = vec![
        ("value", Json::F64(m.value)),
        ("unit", Json::Str(def.unit.into())),
    ];
    if let Some(n) = m.n {
        fields.push(("n", Json::U64(n as u64)));
    }
    obj(fields)
}

/// `name → {value, unit[, n]}` for the metrics of `defs` that were
/// measured, in registry order.
fn metrics_json<'a>(m: &Metrics, defs: impl IntoIterator<Item = &'a MetricDef>) -> Json {
    Json::Obj(
        defs.into_iter()
            .filter_map(|d| {
                let got = m.0.iter().find(|x| x.name == d.name)?;
                Some((d.name.to_string(), measured_json(got, d)))
            })
            .collect(),
    )
}

fn checks_json(c: &Checks) -> Json {
    obj(vec![
        ("attempted", Json::U64(c.attempted as u64)),
        ("failed", Json::U64(c.failed() as u64)),
        (
            "failures",
            Json::Arr(c.failures.iter().cloned().map(Json::Str).collect()),
        ),
    ])
}

fn checks_from_json(v: &Json) -> Result<Checks, String> {
    Ok(Checks {
        attempted: field(v, "attempted")?.as_u64("attempted")? as u32,
        failures: field(v, "failures")?
            .as_arr("failures")?
            .iter()
            .map(|f| f.as_str("failure").map(str::to_string))
            .collect::<Result<_, _>>()?,
    })
}

fn end_to_end_defs() -> impl Iterator<Item = &'static MetricDef> {
    END_TO_END.iter().map(|(d, _)| d)
}

/// Print one run's metrics as `workload metric value unit [n=N]
/// domain`, in registry order. Under `--smoke` host timings carry a
/// `non-comparable` tag; a p95 over too few samples says so.
pub fn print_metrics(workload: &str, m: &Metrics, smoke: bool) {
    for d in end_to_end_defs().chain(&PER_LAYER) {
        let Some(got) = m.0.iter().find(|x| x.name == d.name) else {
            continue;
        };
        let mut line = format!("{workload} {} {:.4} {}", d.name, got.value, d.unit);
        if let Some(n) = got.n {
            line.push_str(&format!(" n={n}"));
            if d.name.contains("p95") && highest_supported_percentile(n) < Some(95.0) {
                line.push_str(&format!(
                    " (fewer than {MIN_SAMPLES_BEYOND} samples beyond p95)"
                ));
            }
        }
        line.push(' ');
        line.push_str(d.domain.tag());
        if smoke && d.domain == Domain::Host {
            line.push_str(" non-comparable");
        }
        println!("{line}");
    }
}

/// Print the check tally and every failure.
pub fn print_checks(workload: &str, c: &Checks) {
    println!(
        "{workload} checks attempted={} failed={}",
        c.attempted,
        c.failed()
    );
    for f in &c.failures {
        println!("{workload} check FAILED: {f}");
    }
}

/// The driver's result: one JSON object on one line, with exactly the
/// metrics `BENCHMARK.json` lists for this kind of run — the host
/// end-to-end metrics untraced; the per-layer metrics one traced run
/// can compute, plus the sim end-to-end metrics, traced.
pub fn contract_line(traced: bool, m: &Metrics, c: &Checks) -> String {
    let listed = contract_metrics(traced)
        .into_iter()
        .map(|d| {
            let value = m.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            (
                d.name,
                obj(vec![
                    ("value", Json::F64(value)),
                    ("unit", Json::Str(d.unit.into())),
                ]),
            )
        })
        .collect();
    compact(&obj(vec![
        ("correct", Json::Bool(c.failed() == 0)),
        ("attempted", Json::U64(c.attempted as u64)),
        ("failed", Json::U64(c.failed() as u64)),
        ("metrics", obj(listed)),
    ]))
}

/// The metrics [`contract_line`] carries.
pub fn contract_metrics(traced: bool) -> Vec<&'static MetricDef> {
    if traced {
        PER_LAYER
            .iter()
            .filter(|d| d.name != metrics::TRACE_OVERHEAD)
            .chain(end_to_end_defs().filter(|d| d.domain == Domain::Sim))
            .collect()
    } else {
        end_to_end_defs()
            .filter(|d| d.domain == Domain::Host)
            .collect()
    }
}

/// One run's result file: what the suite needs back from the child
/// process it re-executed.
pub struct RunFile {
    /// Every metric the run produced.
    pub metrics: Metrics,
    /// The run's checks.
    pub checks: Checks,
    /// Scorecard JSON text.
    pub scorecard: String,
    /// Σ wall inside the live `run_until`, s.
    pub run_until_wall_s: f64,
}

/// `artifact_out/e2e/<workload>.<untraced|traced>.json`.
pub fn run_file_path(workload: &str, traced: bool) -> PathBuf {
    let kind = if traced { "traced" } else { "untraced" };
    Path::new(OUT_DIR).join(format!("{workload}.{kind}.json"))
}

/// Write one run's result file (and its trace, if it has one).
pub fn write_run(
    w: &Workload,
    traced: bool,
    manifest: &Manifest,
    out: &Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    if let Some(trace) = &out.trace {
        let path = Path::new(OUT_DIR).join(format!("{}.trace.jsonl", w.name));
        std::fs::write(path, trace.to_jsonl())?;
    }
    let doc = obj(vec![
        ("manifest", manifest.to_json(&[w])),
        ("workload", Json::Str(w.name.into())),
        ("traced", Json::Bool(traced)),
        ("run_until_wall_s", Json::F64(out.run_until_wall_s)),
        (
            "metrics",
            metrics_json(&out.metrics, end_to_end_defs().chain(&PER_LAYER)),
        ),
        ("checks", checks_json(&out.checks)),
        ("scorecard", Json::Str(out.scorecard.clone())),
    ]);
    std::fs::write(run_file_path(w.name, traced), doc.to_text() + "\n")
}

/// Read a run's result file back.
pub fn read_run(workload: &str, traced: bool) -> Result<RunFile, String> {
    let path = run_file_path(workload, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text)?;
    let mut metrics = Metrics::default();
    for (name, v) in entries(field(&doc, "metrics")?, "metrics")? {
        let def = metrics::find(name).ok_or_else(|| format!("unknown metric \"{name}\""))?;
        metrics.0.push(Measured {
            name: def.name,
            value: field(v, "value")?.as_f64(name)?,
            n: field(v, "n")
                .ok()
                .map(|n| n.as_u64(name))
                .transpose()?
                .map(|n| n as usize),
        });
    }
    Ok(RunFile {
        metrics,
        checks: checks_from_json(field(&doc, "checks")?)?,
        scorecard: field(&doc, "scorecard")?.as_str("scorecard")?.to_string(),
        run_until_wall_s: field(&doc, "run_until_wall_s")?.as_f64("run_until_wall_s")?,
    })
}

/// One workload's merged result in the suite file.
pub struct Merged<'a> {
    /// The workload.
    pub workload: &'a Workload,
    /// The nine end-to-end metrics.
    pub end_to_end: Metrics,
    /// Every per-layer metric.
    pub per_layer: Metrics,
    /// Both runs' checks plus the scorecard-identity check.
    pub checks: Checks,
}

/// Write `artifact_out/e2e/results.json`: the file `--compare` reads.
pub fn write_results(manifest: &Manifest, merged: &[Merged]) -> std::io::Result<PathBuf> {
    let workloads: Vec<&Workload> = merged.iter().map(|m| m.workload).collect();
    let rows = merged
        .iter()
        .map(|m| {
            (
                m.workload.name,
                obj(vec![
                    ("why", Json::Str(m.workload.why.into())),
                    ("end_to_end", metrics_json(&m.end_to_end, end_to_end_defs())),
                    ("per_layer", metrics_json(&m.per_layer, &PER_LAYER)),
                    ("checks", checks_json(&m.checks)),
                ]),
            )
        })
        .collect();
    let doc = obj(vec![
        ("manifest", manifest.to_json(&workloads)),
        ("workloads", obj(rows)),
    ]);
    std::fs::create_dir_all(OUT_DIR)?;
    let path = Path::new(OUT_DIR).join("results.json");
    std::fs::write(&path, doc.to_text() + "\n")?;
    Ok(path)
}

/// `--list`: name and one-line why.
pub fn print_list() {
    for w in &WORKLOADS {
        println!("{}\t{}", w.name, w.why);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::default();
        m.set_n("setup_s", 0.1875, 5);
        m.set_n("realtime_factor", 541.0, 240);
        m.set_n("step_p50_ms", 120.09, 240);
        m.set_n("step_p95_ms", 137.5, 240);
        m.set("peak_rss_mb", 15.25);
        m.set("goodput", 0.43);
        m.set("data_availability", 0.2);
        m.set("recovery_p95_s", 7012.0);
        m
    }

    #[test]
    fn contract_line_is_one_strict_json_object_with_the_four_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let line = contract_line(false, &sample_metrics(), &checks);
        assert!(!line.contains('\n'));
        let mut o = parse(&line).unwrap().into_obj("result").unwrap();
        assert_eq!(o.take("correct").unwrap(), Json::Bool(true));
        assert_eq!(o.take("attempted").unwrap(), Json::U64(1));
        assert_eq!(o.take("failed").unwrap(), Json::U64(0));
        let metrics = o.take("metrics").unwrap();
        o.finish().unwrap();
        // Untraced: exactly the host end-to-end metrics, value + unit.
        let names: Vec<&str> = entries(&metrics, "metrics")
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "realtime_factor",
                "step_p50_ms",
                "step_p95_ms",
                "peak_rss_mb"
            ]
        );
        let mut rtf = field(&metrics, "realtime_factor")
            .unwrap()
            .clone()
            .into_obj("m")
            .unwrap();
        assert_eq!(rtf.take("value").unwrap(), Json::F64(541.0));
        assert_eq!(rtf.take("unit").unwrap(), Json::Str("sim-s/s".into()));
        rtf.finish().unwrap();
    }

    #[test]
    fn a_failed_check_makes_the_line_incorrect_and_nan_never_escapes() {
        let mut checks = Checks::default();
        checks.check(false, || "broken \"ledger\"\nline two".into());
        let mut m = sample_metrics();
        m.0[1].value = f64::NAN;
        let line = contract_line(false, &m, &checks);
        let v = parse(&line).expect("still strict JSON");
        assert_eq!(field(&v, "correct").unwrap(), &Json::Bool(false));
        assert_eq!(field(&v, "failed").unwrap(), &Json::U64(1));
        // And the failure text survives the compact writer intact.
        let round = parse(&compact(&checks_json(&checks))).unwrap();
        assert_eq!(checks_from_json(&round).unwrap(), checks);
    }

    /// `BENCHMARK.json` at the repository root is what the driver
    /// reads; this harness is what it runs. They must name the same
    /// things.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).expect(path)).unwrap();
        let strs = |v: &Json, key: &str| -> Vec<String> {
            let arr = field(v, key).unwrap().as_arr(key).unwrap();
            arr.iter().map(|s| s.as_str(key).unwrap().into()).collect()
        };
        assert_eq!(
            strs(&doc, "command"),
            [
                "cargo",
                "run",
                "--release",
                "--quiet",
                "-p",
                "tssdn-e2e",
                "--"
            ]
        );
        assert_eq!(strs(&doc, "paths"), ["crates/e2e"]);

        let listed = field(&doc, "workloads")
            .unwrap()
            .as_arr("workloads")
            .unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (l, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(field(l, "name").unwrap(), &Json::Str(w.name.into()));
            assert_eq!(field(l, "why").unwrap(), &Json::Str(w.why.into()));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }

        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let listed = field(&doc, key).unwrap().as_arr(key).unwrap();
            let emitted = contract_metrics(traced);
            assert_eq!(listed.len(), emitted.len(), "{key}");
            for (l, d) in listed.iter().zip(emitted) {
                assert_eq!(field(l, "name").unwrap(), &Json::Str(d.name.into()));
                assert_eq!(field(l, "unit").unwrap(), &Json::Str(d.unit.into()));
                let better = match d.better {
                    metrics::Better::Higher => "higher",
                    metrics::Better::Lower => "lower",
                };
                assert_eq!(
                    field(l, "better").unwrap(),
                    &Json::Str(better.into()),
                    "{}",
                    d.name
                );
                if !traced {
                    let bound = field(l, "bound").unwrap().as_f64("bound").unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "{}", d.name);
                }
            }
        }
    }

    #[test]
    fn traced_contract_metrics_are_the_layers_plus_the_sim_outcomes() {
        let names: Vec<&str> = contract_metrics(true).iter().map(|d| d.name).collect();
        assert_eq!(names.len(), PER_LAYER.len() - 1 + 3);
        assert!(!names.contains(&metrics::TRACE_OVERHEAD));
        assert!(names.ends_with(&["goodput", "data_availability", "recovery_p95_s"]));
    }
}
