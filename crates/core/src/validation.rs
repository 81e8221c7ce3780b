//! Model validation: detecting when the controller's physical models
//! have gone stale.
//!
//! §5 "Model Validation": "we built tooling to correlate historical
//! link telemetry with antenna pointing vectors to detect stale
//! obstruction masks ... Identification of a systematic skew in the RF
//! measurements and model expectations would trigger remedial action."
//!
//! Two tools live here:
//!
//! * [`ModelValidator::record`] accumulates modelled-vs-measured
//!   signal samples (Figure 10's histogram is its output), each tagged
//!   with the ground-station pointing vector.
//! * [`ModelValidator::find_new_obstructions`] bins samples by
//!   azimuth and flags sectors whose error became much worse after a
//!   split instant — the Figure 13 screenshot as an algorithm
//!   (experiment E13: a "new building" appears mid-run and gets
//!   detected).

use tssdn_geo::AzEl;
use tssdn_link::LinkKind;
use tssdn_sim::{PlatformId, SimTime};

/// One modelled-vs-measured comparison point.
#[derive(Debug, Clone, Copy)]
pub struct ModelErrorSample {
    /// When the sample was taken.
    pub at: SimTime,
    /// The platform whose antenna took the measurement (ground
    /// station for obstruction analysis).
    pub observer: PlatformId,
    /// Antenna pointing when measured.
    pub pointing: AzEl,
    /// Modelled (expected) received margin, dB.
    pub modelled_db: f64,
    /// Measured margin, dB.
    pub measured_db: f64,
    /// Link class.
    pub kind: LinkKind,
}

impl ModelErrorSample {
    /// Measured minus modelled, dB. Positive = more signal than the
    /// model predicted (the paper's intentional pessimism produced a
    /// +4.3 dB average shift).
    pub fn error_db(&self) -> f64 {
        self.measured_db - self.modelled_db
    }
}

/// A detected stale-obstruction sector at a site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObstructionFinding {
    /// The site.
    pub site: PlatformId,
    /// Start of the suspicious azimuth bin, degrees.
    pub az_start_deg: f64,
    /// End of the suspicious azimuth bin, degrees.
    pub az_end_deg: f64,
    /// Mean error within the bin, dB.
    pub mean_error_db: f64,
    /// Samples in the bin.
    pub samples: usize,
}

/// Accumulates telemetry and analyzes it.
#[derive(Debug, Default)]
pub struct ModelValidator {
    samples: Vec<ModelErrorSample>,
}

impl ModelValidator {
    /// An empty validator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one comparison sample.
    pub fn record(&mut self, s: ModelErrorSample) {
        self.samples.push(s);
    }

    /// All samples.
    pub fn samples(&self) -> &[ModelErrorSample] {
        &self.samples
    }

    /// Error values for one link kind (Figure 10 plots B2B).
    pub fn errors_db(&self, kind: LinkKind) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.error_db())
            .collect()
    }

    /// Histogram of errors over `[lo, hi)` with `bins` buckets;
    /// returns `(bin_center, count)` pairs. Out-of-range samples clamp
    /// into the edge bins (the paper's "long tails").
    pub fn error_histogram(
        &self,
        kind: LinkKind,
        lo: f64,
        hi: f64,
        bins: usize,
    ) -> Vec<(f64, usize)> {
        assert!(bins > 0 && hi > lo);
        let width = (hi - lo) / bins as f64;
        let mut counts = vec![0usize; bins];
        for e in self.errors_db(kind) {
            let idx = (((e - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
        }
        counts
            .into_iter()
            .enumerate()
            .map(|(i, c)| (lo + width * (i as f64 + 0.5), c))
            .collect()
    }

    /// Mean error for a kind (the +4.3 dB shift statistic).
    pub fn mean_error_db(&self, kind: LinkKind) -> Option<f64> {
        let xs = self.errors_db(kind);
        if xs.is_empty() {
            return None;
        }
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }

    /// Find azimuth sectors at `site` that *became* worse: per-bin
    /// median error in samples after `split` at least `threshold_db`
    /// below the same bin's median before `split` (each side needing
    /// `min_samples`). This is the "new building" detector — a stale
    /// mask manifests as a sector whose telemetry deteriorates, not as
    /// one that was always bad.
    ///
    /// Medians, not means: a storm cell parked in a sector contributes
    /// a heavy tail of deeply faded samples that drags a mean far
    /// below zero while most samples in the window stay on-model. A
    /// physical obstruction shifts *every* sample, so the median moves
    /// with it — the statistic separates the two confounds the paper's
    /// correlation tooling had to (§5).
    pub fn find_new_obstructions(
        &self,
        site: PlatformId,
        bin_width_deg: f64,
        threshold_db: f64,
        min_samples: usize,
        split: SimTime,
    ) -> Vec<ObstructionFinding> {
        let bins = (360.0 / bin_width_deg).ceil() as usize;
        let mut before: Vec<Vec<f64>> = vec![Vec::new(); bins];
        let mut after: Vec<Vec<f64>> = vec![Vec::new(); bins];
        for s in self
            .samples
            .iter()
            .filter(|s| s.observer == site && s.kind == LinkKind::B2G)
        {
            let b =
                ((tssdn_geo::norm_deg(s.pointing.az_deg) / bin_width_deg) as usize).min(bins - 1);
            let slot = if s.at < split {
                &mut before[b]
            } else {
                &mut after[b]
            };
            slot.push(s.error_db());
        }
        let median = |xs: &mut Vec<f64>| -> f64 {
            xs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            xs[xs.len() / 2]
        };
        (0..bins)
            .filter(|b| before[*b].len() >= min_samples && after[*b].len() >= min_samples)
            .filter_map(|b| {
                let med_before = median(&mut before[b].clone());
                let med_after = median(&mut after[b].clone());
                // An obstruction both *deteriorates* the sector and
                // leaves it with systematically less signal than the
                // model predicts. The second clause filters shifts in
                // weather-miss composition (big positive errors moving
                // around between windows), which are not obstructions.
                if med_after <= med_before - threshold_db && med_after <= 0.0 {
                    Some(ObstructionFinding {
                        site,
                        az_start_deg: b as f64 * bin_width_deg,
                        az_end_deg: (b + 1) as f64 * bin_width_deg,
                        mean_error_db: med_after,
                        samples: after[b].len(),
                    })
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(az: f64, modelled: f64, measured: f64, kind: LinkKind) -> ModelErrorSample {
        ModelErrorSample {
            at: SimTime::ZERO,
            observer: PlatformId(100),
            pointing: AzEl::new(az, 3.0),
            modelled_db: modelled,
            measured_db: measured,
            kind,
        }
    }

    #[test]
    fn error_sign_convention() {
        let s = sample(0.0, 5.0, 9.3, LinkKind::B2B);
        assert!(
            (s.error_db() - 4.3).abs() < 1e-12,
            "measured better than modelled is positive"
        );
    }

    #[test]
    fn mean_error_by_kind() {
        let mut v = ModelValidator::new();
        v.record(sample(0.0, 5.0, 9.0, LinkKind::B2B));
        v.record(sample(0.0, 5.0, 10.0, LinkKind::B2B));
        v.record(sample(0.0, 5.0, 0.0, LinkKind::B2G));
        assert_eq!(v.mean_error_db(LinkKind::B2B), Some(4.5));
        assert_eq!(v.mean_error_db(LinkKind::B2G), Some(-5.0));
        assert_eq!(ModelValidator::new().mean_error_db(LinkKind::B2B), None);
    }

    #[test]
    fn histogram_clamps_tails() {
        let mut v = ModelValidator::new();
        v.record(sample(0.0, 0.0, 100.0, LinkKind::B2B)); // +100 dB outlier
        v.record(sample(0.0, 0.0, 0.0, LinkKind::B2B));
        let h = v.error_histogram(LinkKind::B2B, -20.0, 20.0, 4);
        assert_eq!(h.len(), 4);
        let total: usize = h.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 2, "outlier clamped into edge bin");
        assert_eq!(h[3].1, 1);
    }

    /// The instant the tests' obstruction appears, and a sample
    /// time after it.
    const SPLIT: SimTime = SimTime(3_600_000);
    const LATER: SimTime = SimTime(7_200_000);

    /// `sample` taken at `at`.
    fn sample_at(at: SimTime, az: f64, measured: f64) -> ModelErrorSample {
        ModelErrorSample {
            at,
            ..sample(az, 5.0, measured, LinkKind::B2G)
        }
    }

    /// Four healthy samples every `step` degrees, before and after the
    /// split, skipping azimuths `skip` rejects after it.
    fn healthy_site(v: &mut ModelValidator, step: usize, skip: impl Fn(f64) -> bool) {
        for at in [SimTime::ZERO, LATER] {
            for az in (0..360).step_by(step).map(|az| az as f64 + 0.5) {
                if at == LATER && skip(az) {
                    continue;
                }
                for _ in 0..4 {
                    v.record(sample_at(at, az, 9.0));
                }
            }
        }
    }

    #[test]
    fn detects_bad_sector_against_baseline() {
        let mut v = ModelValidator::new();
        healthy_site(&mut v, 5, |_| false);
        // A new building at azimuth 40–60°: signal 20 dB below model.
        for az in [42.0, 47.0, 52.0, 57.0] {
            for _ in 0..5 {
                v.record(sample_at(LATER, az, -15.0));
            }
        }
        let findings = v.find_new_obstructions(PlatformId(100), 20.0, 8.0, 4, SPLIT);
        assert!(!findings.is_empty(), "building detected");
        for f in &findings {
            assert!(
                f.az_start_deg >= 40.0 - 1e-9 && f.az_end_deg <= 60.0 + 1e-9,
                "{f:?}"
            );
            assert!(f.mean_error_db < -5.0);
        }
    }

    #[test]
    fn clean_site_yields_no_findings() {
        let mut v = ModelValidator::new();
        healthy_site(&mut v, 5, |_| false);
        assert!(v
            .find_new_obstructions(PlatformId(100), 20.0, 8.0, 4, SPLIT)
            .is_empty());
    }

    #[test]
    fn sparse_bins_ignored() {
        let mut v = ModelValidator::new();
        // After the split the 100–120° sector holds one terrible
        // sample and nothing else: not enough support.
        healthy_site(&mut v, 10, |az| (100.0..120.0).contains(&az));
        v.record(sample_at(LATER, 105.0, -30.0));
        let findings = v.find_new_obstructions(PlatformId(100), 20.0, 8.0, 4, SPLIT);
        assert!(
            findings.is_empty(),
            "single outlier is not a finding: {findings:?}"
        );
    }

    #[test]
    fn other_sites_not_mixed_in() {
        let mut v = ModelValidator::new();
        for (at, measured) in [(SimTime::ZERO, 9.0), (LATER, -20.0)] {
            let mut s = sample_at(at, 10.0, measured);
            s.observer = PlatformId(101);
            for _ in 0..10 {
                v.record(s);
            }
        }
        assert!(v
            .find_new_obstructions(PlatformId(100), 20.0, 8.0, 4, SPLIT)
            .is_empty());
        assert_eq!(
            v.find_new_obstructions(PlatformId(101), 20.0, 8.0, 4, SPLIT)
                .len(),
            1,
            "the other site's own query finds it"
        );
    }
}
