//! The four scenario workloads and their measured windows.
//!
//! Each workload is a strict-JSON `ScenarioSpec` under `workloads/`,
//! compiled into the binary so a run does not depend on the working
//! directory, and loaded only through `ScenarioSpec::from_json` — the
//! path a user's own spec file takes. The program receives nothing but
//! the spec.
//!
//! `--seed` draws an *instance* of the workload: the committed world
//! with its spawn disc scaled by up to ±[`INSTANCE_JITTER`]. Every
//! balloon starts somewhere slightly different, so link choices,
//! enactments and faults-in-context diverge within the first hour and
//! no two seeds run the same trajectory, while the fleet stays the
//! one the workload is named for. Replacing the spec's own seed
//! instead draws an unrelated fleet, and the cost of a 12-balloon
//! world swings with its geometry: across eight re-seeded worlds
//! `realtime_factor` spread (IQR ÷ median) 27 % and `step_p95_ms`
//! 45 % on `kenya12_3day`, against 8 % and 6 % across ten instances —
//! no regression bound of 25 % or less can be read through the former
//! (README, "Seeds draw instances").

use tssdn_scenario::ScenarioSpec;
use tssdn_sim::{SimDuration, SimTime};

/// One measured step: `solve_interval`, so every step holds exactly
/// one scheduled controller cycle.
pub const STEP: SimDuration = SimDuration(60_000);

/// Every window opens at 06:00 on day 0: set-up fast-forwards the
/// powered-down night, measurement starts as the fleet wakes.
pub const WINDOW_START: SimTime = SimTime(6 * 3_600_000);

/// `--smoke` cuts every window to 06:00 → 06:30, which keeps the
/// whole suite (eight runs, set-ups included) under 30 s.
pub const SMOKE_STEPS: u32 = 30;

/// The seed `--all` uses when none is given.
pub const DEFAULT_SEED: u64 = 20220822;

/// How far a seed may scale a workload's spawn radius, either way.
pub const INSTANCE_JITTER: f64 = 0.05;

/// The spawn-radius scale `seed` draws, uniform in `1 ±
/// INSTANCE_JITTER` (one splitmix64 step, so neighbouring seeds land
/// far apart).
pub fn instance_scale(seed: u64) -> f64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    1.0 + INSTANCE_JITTER * (2.0 * unit - 1.0)
}

/// A named scenario and how long it is measured.
pub struct Workload {
    /// Name on the command line and in every output.
    pub name: &'static str,
    /// One line: which layer does the work here, and why it is kept.
    pub why: &'static str,
    spec_json: &'static str,
    /// Measured-window length in [`STEP`]s from [`WINDOW_START`].
    pub steps: u32,
    /// Whether the mesh is able to bootstrap: `links_established > 0`
    /// is checked when it can, `== 0` with intents still being created
    /// when the out-of-band path is dead.
    pub bootstraps: bool,
}

/// The benchmark's workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "dense50_morning",
        why: "50 balloons in a 300 km disc, clear, no faults: the in-band mesh does the work (~80 % of wall) with warm incremental solves",
        spec_json: include_str!("../workloads/dense50_morning.json"),
        steps: 240,
        bootstraps: true,
    },
    Workload {
        name: "flows24k_day",
        why: "12 balloons x 2000 flows/site with a x4 bulk surge: the traffic engine does the work (~67 % of wall) and flow state is the memory",
        spec_json: include_str!("../workloads/flows24k_day.json"),
        steps: 780,
        bootstraps: true,
    },
    Workload {
        name: "kenya12_3day",
        why: "12 balloons over three days with storms, seeded faults, custody and 3 planner regions: orchestrator bookkeeping grows with run length",
        spec_json: include_str!("../workloads/kenya12_3day.json"),
        steps: 4320,
        bootstraps: true,
    },
    Workload {
        name: "satdark100_day",
        why: "100 balloons with satcom dead from minute 0, so the mesh never bootstraps: cold planner solves every minute (~80 % of wall), mesh bypassed",
        spec_json: include_str!("../workloads/satdark100_day.json"),
        steps: 660,
        bootstraps: false,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The committed spec text.
    pub fn spec_json(&self) -> &'static str {
        self.spec_json
    }

    /// Parse + validate the committed spec and make it the instance
    /// `seed` draws.
    pub fn spec(&self, seed: u64) -> ScenarioSpec {
        let mut spec =
            ScenarioSpec::from_json(self.spec_json).expect("committed workload spec is valid");
        spec.fleet.spawn_radius_km *= instance_scale(seed);
        spec.validate()
            .expect("a scaled disc is still a valid spec");
        spec
    }

    /// Steps measured in this mode.
    pub fn window_steps(&self, smoke: bool) -> u32 {
        if smoke {
            SMOKE_STEPS.min(self.steps)
        } else {
            self.steps
        }
    }
}

/// End of a window of `steps` steps.
pub fn window_end(steps: u32) -> SimTime {
    WINDOW_START + SimDuration(STEP.as_ms() * steps as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::highest_supported_percentile;

    #[test]
    fn every_spec_parses_round_trips_and_builds() {
        for w in &WORKLOADS {
            let spec = ScenarioSpec::from_json(w.spec_json())
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            spec.validate()
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert_eq!(spec.name, w.name, "spec name matches workload name");
            assert_eq!(
                spec.seed, DEFAULT_SEED,
                "{}: committed default seed",
                w.name
            );
            // `to_json ∘ from_json` is a fixpoint: the committed file
            // is already in the writer's canonical form.
            let text = spec.to_json();
            assert_eq!(ScenarioSpec::from_json(&text).unwrap(), spec);
            assert_eq!(text.trim_end(), w.spec_json().trim_end(), "{}", w.name);
            // The spec's horizon covers the measured window.
            assert!(
                window_end(w.steps) <= spec.end_time(),
                "{}: window ends after duration_hours",
                w.name
            );
            // An instance is the same world in a slightly scaled
            // disc, and is itself a valid spec.
            let instance = w.spec(7);
            instance.validate().unwrap();
            let scale = instance.fleet.spawn_radius_km / spec.fleet.spawn_radius_km;
            assert!((scale - instance_scale(7)).abs() < 1e-12);
            let mut same_disc = instance.clone();
            same_disc.fleet.spawn_radius_km = spec.fleet.spawn_radius_km;
            assert_eq!(same_disc, spec, "{}: only the disc differs", w.name);
            assert_eq!(
                instance.build().num_balloons(),
                spec.fleet.n_balloons as usize
            );
        }
    }

    #[test]
    fn seeds_draw_distinct_scales_inside_the_jitter() {
        let scales: Vec<f64> = (0..100).map(instance_scale).collect();
        for (i, s) in scales.iter().enumerate() {
            assert!((s - 1.0).abs() <= INSTANCE_JITTER, "seed {i}: {s}");
            assert_eq!(*s, instance_scale(i as u64), "same seed, same instance");
        }
        let mut sorted = scales.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "no two seeds share an instance");
        // Both halves of the range are drawn from.
        assert!(sorted[0] < 1.0 - INSTANCE_JITTER / 2.0);
        assert!(sorted[99] > 1.0 + INSTANCE_JITTER / 2.0);
    }

    #[test]
    fn every_window_supports_the_p95_it_reports() {
        for w in &WORKLOADS {
            assert!(w.steps >= 240, "{}", w.name);
            assert!(
                highest_supported_percentile(w.steps as usize) >= Some(95.0),
                "{}: fewer than 10 steps beyond p95",
                w.name
            );
        }
    }
}
