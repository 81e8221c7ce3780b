//! Sample statistics the report is built from.

pub use tssdn_telemetry::percentile;

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; fewer and it is a statement about one or two
/// outliers, not about the distribution.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// The tail percentiles the report knows, highest first, in
/// per-mille so the sample arithmetic stays exact.
const LADDER_PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest ladder percentile `n` samples support: the first with
/// at least [`MIN_SAMPLES_BEYOND`] samples beyond it. `None` below 40
/// samples, where only the median is worth stating.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    LADDER_PER_MILLE
        .into_iter()
        .find(|pm| n * (1000 - pm) >= MIN_SAMPLES_BEYOND * 1000)
        .map(|pm| pm as f64 / 10.0)
}

/// `p`-th percentile of `xs`, 0 on an empty sample (a layer that
/// never ran on this workload).
pub fn pct(xs: &[f64], p: f64) -> f64 {
    percentile(xs, p).unwrap_or(0.0)
}

/// `num / den`, 0 when nothing was counted (so ratios stay finite and
/// the JSON emitter never sees a NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 240 steps: 12 beyond p95, 2.4 beyond p99.
        assert_eq!(highest_supported_percentile(240), Some(95.0));
        // 199 × 5 % = 9.95 < 10: p95 is not supported yet, p90 is.
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        // The smoke window (120 steps) only supports p90.
        assert_eq!(highest_supported_percentile(120), Some(90.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(39), None);
    }

    #[test]
    fn empty_samples_and_zero_denominators_report_zero() {
        assert_eq!(pct(&[], 50.0), 0.0);
        assert_eq!(pct(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
