//! Shared scenario builders and reporting helpers for the figure
//! harness binaries (`src/bin/fig*.rs`, `src/bin/ablation_*.rs`,
//! `src/bin/app*.rs`) and the criterion benches (`benches/`).
//!
//! Every binary regenerates one paper figure/claim; see DESIGN.md §3
//! for the experiment index and EXPERIMENTS.md for paper-vs-measured
//! results.

use tssdn_core::OrchestratorConfig;
use tssdn_telemetry::percentile;

// The wet-season weather truth lives with the scenario builder now;
// re-exported so existing figure binaries keep compiling unchanged.
pub use tssdn_scenario::stormy_truth;

/// Standard experiment seed (override with `TSSDN_SEED`).
pub fn seed() -> u64 {
    std::env::var("TSSDN_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20220822)
}

/// Scale factor for experiment durations/fleets (default 1.0; set
/// `TSSDN_SCALE=0.25` for a quick smoke run).
pub fn scale() -> f64 {
    std::env::var("TSSDN_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scale a day count, with a floor of 1.
pub fn days(n: u64) -> u64 {
    ((n as f64 * scale()).round() as u64).max(1)
}

/// The standard full-loop scenario most experiments start from:
/// `n` balloons over Kenya, stormy afternoons, 3 ground stations, and
/// the production-like weather belief (site gauges + an imperfect
/// forecast over the ITU backstop, §5).
pub fn standard_config(n: usize, num_days: u64, seed: u64) -> OrchestratorConfig {
    let mut cfg = OrchestratorConfig::kenya(n, seed);
    cfg.weather_truth = stormy_truth(num_days, 1.0);
    cfg.weather_model = tssdn_core::WeatherModelKind::WithGauges {
        position_error_m: 20_000.0,
        timing_error_ms: 30 * 60 * 1000,
        intensity_scale: 0.8,
    };
    cfg
}

/// Print a CDF as `value fraction` rows for a fixed quantile ladder.
pub fn print_cdf(label: &str, xs: &[f64]) {
    println!("# CDF: {label} (n={})", xs.len());
    if xs.is_empty() {
        println!("  (no samples)");
        return;
    }
    for p in [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
        let v = percentile(xs, p).expect("non-empty");
        println!("  p{p:<4} {v:>10.2}");
    }
}

/// The provenance object a committed `BENCH_*.json` carries, as a JSON
/// object literal: git revision (`-dirty` when tracked files differ,
/// with `diff` the `git hash-object` of `git diff HEAD`, so the exact
/// uncommitted change is named), `rustc -V`, the worker threads
/// available, and the bench mode — without these a number cannot be
/// compared across commits or hosts.
pub fn manifest_json(mode: &str) -> String {
    let first_line = |cmd: &str, args: &[&str]| {
        let out = std::process::Command::new(cmd).args(args).output().ok()?;
        let line = String::from_utf8(out.stdout)
            .ok()?
            .lines()
            .next()?
            .trim()
            .to_string();
        (out.status.success() && !line.is_empty()).then_some(line)
    };
    let unknown = || "unknown".to_string();
    let mut diff = String::new();
    let revision = first_line("git", &["rev-parse", "HEAD"]).map_or_else(unknown, |rev| {
        let clean = std::process::Command::new("git")
            .args(["diff", "--quiet", "HEAD"])
            .status()
            .is_ok_and(|s| s.success());
        if clean {
            return rev;
        }
        let id = first_line("sh", &["-c", "git diff HEAD | git hash-object --stdin"]);
        diff = format!(", \"diff\": \"{}\"", id.unwrap_or_else(unknown));
        format!("{rev}-dirty")
    });
    let rustc = first_line("rustc", &["-V"]).unwrap_or_else(unknown);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"revision\": \"{revision}\"{diff}, \"rustc\": \"{rustc}\", \"nproc\": {nproc}, \"mode\": \"{mode}\"}}"
    )
}

/// Appendix A's mesh-redundancy fraction: given `b` balloons in the
/// mesh, `g` ground-station transceivers, and `l` installed links,
/// `Lmin = b`, `Lmax = floor((g + 3b)/2)`, and the utilized fraction
/// of possible redundant links is `(l − Lmin)/(Lmax − Lmin)`.
/// Returns `None` when the mesh is degenerate (no redundancy room).
pub fn redundancy_fraction(b: usize, g: usize, l: usize) -> Option<f64> {
    let lmin = b;
    let lmax = (g + 3 * b) / 2;
    if lmax <= lmin {
        return None;
    }
    Some((l as f64 - lmin as f64) / (lmax as f64 - lmin as f64))
}

/// Format seconds human-readably (paper style: 1m45s).
pub fn fmt_secs(s: f64) -> String {
    if s >= 3600.0 {
        format!(
            "{}h{:02}m{:02}s",
            (s / 3600.0) as u64,
            ((s / 60.0) as u64) % 60,
            s as u64 % 60
        )
    } else if s >= 60.0 {
        format!("{}m{:02}s", (s / 60.0) as u64, s as u64 % 60)
    } else {
        format!("{s:.1}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_is_strict_json_with_its_provenance_keys() {
        let manifest = manifest_json("smoke");
        let mut o = tssdn_json::parse(&manifest)
            .expect("parses")
            .into_obj("manifest")
            .expect("an object");
        assert!(
            o.take("revision").is_ok() && o.take("rustc").is_ok(),
            "{manifest}"
        );
        assert!(
            o.take("nproc").and_then(|n| n.as_u64("nproc")).is_ok(),
            "{manifest}"
        );
        assert_eq!(
            o.take("mode").map(|m| m.as_str("mode").map(String::from)),
            Ok(Ok("smoke".into()))
        );
        // `diff` sits beside a dirty revision, and only there.
        let dirty = manifest.contains("-dirty");
        assert_eq!(o.take_opt("diff").is_some(), dirty, "{manifest}");
        o.finish().expect("no other keys");
    }

    #[test]
    fn fmt_secs_matches_paper_style() {
        assert_eq!(fmt_secs(105.0), "1m45s");
        assert_eq!(fmt_secs(23.0), "23.0s");
        assert_eq!(fmt_secs(1555.0), "25m55s");
        assert_eq!(fmt_secs(5400.0), "1h30m00s");
    }

    #[test]
    fn scale_days_floor() {
        assert!(days(4) >= 1);
    }
}
