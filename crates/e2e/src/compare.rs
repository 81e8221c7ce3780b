//! `--compare A.json B.json`: is B worse than A?
//!
//! Applies each end-to-end metric's bound to two suite result files,
//! workload by workload. The host metrics take the relative bound
//! recorded in `BENCHMARK.json` (the number the driver applies); the
//! sim metrics take the absolute rules in the registry, which that
//! file's schema cannot express.

use tssdn_scenario::json::{parse, Json};

use crate::metrics::{Better, Bound, END_TO_END};
use crate::report::{entries, field};

/// Where B landed relative to A, under the metric's bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound either way.
    Ok,
    /// Worse than A by more than the bound.
    Worse,
    /// Better than A by more than the bound.
    Better,
}

impl Verdict {
    fn tag(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
        }
    }
}

/// How far from baseline `a` a value may land and still be `ok`.
/// `recorded` is the metric's relative bound in `BENCHMARK.json`,
/// which a [`Bound::Recorded`] metric must have.
fn slack(bound: Bound, a: f64, recorded: Option<f64>) -> Result<f64, String> {
    Ok(match bound {
        Bound::Recorded => recorded.ok_or("BENCHMARK.json records no bound")? * a.abs(),
        Bound::Abs(x) => x,
        Bound::RelPlus(rel, abs) => rel * a.abs() + abs,
        Bound::Exact => 0.0,
    })
}

/// Judge `b` against baseline `a`, `slack` either way being `ok`.
pub fn judge(a: f64, b: f64, better: Better, slack: f64) -> Verdict {
    // Positive = B is worse.
    let worse_by = match better {
        Better::Lower => b - a,
        Better::Higher => a - b,
    };
    if worse_by > slack {
        Verdict::Worse
    } else if -worse_by > slack {
        Verdict::Better
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mode = field(field(&doc, "manifest")?, "mode")?.as_str("manifest.mode")?;
    if mode != "full" {
        return Err(format!(
            "{path}: mode \"{mode}\" results are not comparable"
        ));
    }
    Ok(doc)
}

/// The `bound` of every end-to-end metric `BENCHMARK.json` lists.
fn recorded_bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse(benchmark_json)?;
    field(&doc, "end_to_end")?
        .as_arr("end_to_end")?
        .iter()
        .map(|m| {
            Ok((
                field(m, "name")?.as_str("name")?.to_string(),
                field(m, "bound")?.as_f64("bound")?,
            ))
        })
        .collect()
}

/// Compare two result files; prints one line per workload × metric
/// and returns how many were `worse`.
pub fn compare(path_a: &str, path_b: &str) -> Result<usize, String> {
    let bounds = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))
        .and_then(|t| recorded_bounds(&t))?;
    let (a, b) = (load(path_a)?, load(path_b)?);
    let mut worse = 0;
    for (name, wa) in entries(field(&a, "workloads")?, "workloads")? {
        let wb = field(field(&b, "workloads")?, name).map_err(|e| format!("{path_b}: {e}"))?;
        for (def, bound) in &END_TO_END {
            let value = |w: &Json| -> Result<f64, String> {
                field(field(field(w, "end_to_end")?, def.name)?, "value")?.as_f64(def.name)
            };
            let (va, vb) = (value(wa)?, value(wb)?);
            let recorded = bounds.iter().find(|(n, _)| n == def.name).map(|(_, b)| *b);
            let slack = slack(*bound, va, recorded).map_err(|e| format!("{}: {e}", def.name))?;
            let verdict = judge(va, vb, def.better, slack);
            worse += (verdict == Verdict::Worse) as usize;
            println!(
                "{name} {} {} {va:.4} -> {vb:.4} {}",
                def.name,
                verdict.tag(),
                def.unit
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn recorded_bounds_are_a_share_of_the_baseline() {
        let j = |a, b, better| {
            let slack = slack(Bound::Recorded, a, Some(0.07)).unwrap();
            judge(a, b, better, slack)
        };
        // realtime_factor: higher is better; −7 % is the edge.
        assert_eq!(j(500.0, 470.0, Higher), Verdict::Ok);
        assert_eq!(j(500.0, 464.0, Higher), Verdict::Worse);
        assert_eq!(j(500.0, 540.0, Higher), Verdict::Better);
        // step_p50_ms: lower is better.
        assert_eq!(j(100.0, 106.9, Lower), Verdict::Ok);
        assert_eq!(j(100.0, 107.1, Lower), Verdict::Worse);
        assert_eq!(j(100.0, 92.0, Lower), Verdict::Better);
    }

    #[test]
    fn sim_bounds_are_absolute_and_exact_means_exact() {
        let j = |a, b, better, bound| judge(a, b, better, slack(bound, a, None).unwrap());
        assert_eq!(j(0.43, 0.415, Higher, Bound::Abs(0.02)), Verdict::Ok);
        assert_eq!(j(0.43, 0.40, Higher, Bound::Abs(0.02)), Verdict::Worse);
        // A 0 baseline (satdark100_day) stays comparable.
        assert_eq!(j(0.0, 0.0, Higher, Bound::Abs(0.02)), Verdict::Ok);
        let rec = Bound::RelPlus(0.10, 60.0);
        assert_eq!(j(7000.0, 7700.0, Lower, rec), Verdict::Ok);
        assert_eq!(j(7000.0, 7761.0, Lower, rec), Verdict::Worse);
        assert_eq!(j(0.0, 59.0, Lower, rec), Verdict::Ok);
        assert_eq!(j(0.0, 0.0, Lower, Bound::Exact), Verdict::Ok);
        assert_eq!(j(0.0, 0.1, Lower, Bound::Exact), Verdict::Worse);
        // A host metric without a recorded bound is an error, not 0.
        assert!(slack(Bound::Recorded, 1.0, None).is_err());
    }

    #[test]
    fn bounds_are_read_from_the_benchmark_file() {
        let text = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "realtime_factor", "unit": "sim-s/s", "better": "higher", "bound": 0.1}
        ]}"#;
        assert_eq!(
            recorded_bounds(text).unwrap(),
            vec![
                ("setup_s".to_string(), 0.25),
                ("realtime_factor".into(), 0.1)
            ]
        );
    }
}
