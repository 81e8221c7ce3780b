//! Balloon flight dynamics and the FMS station-seeking controller.
//!
//! Balloons have no lateral thrust: they drift with the wind of the
//! altitude layer they occupy and can only change altitude (at a slow
//! vertical rate). The FMS "modeled winds at different altitudes, then
//! automatically instructed balloons to change altitude to catch the
//! desired wind currents and drift toward a target over the service
//! region" (§2.2). Navigation is therefore probabilistic: the best the
//! controller can do is pick the least-bad layer.

use crate::time::{SimDuration, SimTime};
use crate::wind::WindField;
use tssdn_geo::GeoPoint;

/// Static balloon flight parameters.
#[derive(Debug, Clone, Copy)]
pub struct BalloonConfig {
    /// Maximum vertical rate when commanded to change altitude, m/s.
    pub vertical_rate_mps: f64,
    /// Station-keeping target (center of the service region).
    pub target: GeoPoint,
    /// Distance from target below which the balloon loiters (picks
    /// the slowest wind instead of steering), meters.
    pub loiter_radius_m: f64,
    /// How often the FMS re-evaluates the wind column.
    pub decision_interval: SimDuration,
}

impl BalloonConfig {
    /// Loon-like defaults over a Kenya-sized service region.
    pub fn loon_default(target: GeoPoint) -> Self {
        BalloonConfig {
            vertical_rate_mps: 1.0,
            target,
            loiter_radius_m: 120_000.0,
            decision_interval: SimDuration::from_mins(10),
        }
    }
}

/// The FMS decision logic for a single balloon.
///
/// Modeled as a pure function of the local wind column: outside the
/// loiter radius, pick the layer whose wind vector has the greatest
/// component toward the target; inside it, pick the slowest layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct FmsController;

impl FmsController {
    /// Choose a target altitude (meters) for a balloon at `pos`.
    fn choose_altitude(
        &self,
        pos: &GeoPoint,
        target: &GeoPoint,
        loiter_radius_m: f64,
        wind: &WindField,
    ) -> f64 {
        let column = wind.column_at(pos);
        let dist = pos.ground_distance_m(&GeoPoint::new(target.lat_deg, target.lon_deg, pos.alt_m));
        if dist <= loiter_radius_m {
            // Loiter: slowest wind keeps us near the target longest.
            column
                .iter()
                .min_by(|a, b| {
                    a.1.speed_mps()
                        .partial_cmp(&b.1.speed_mps())
                        .expect("finite speeds")
                })
                .map(|(alt, _)| *alt)
                .expect("non-empty column")
        } else {
            // Steer: maximize wind component toward the target.
            let bearing = tssdn_geo::deg_to_rad(pos.bearing_deg(target));
            let (to_e, to_n) = (bearing.sin(), bearing.cos());
            column
                .iter()
                .max_by(|a, b| {
                    let pa = a.1.east_mps * to_e + a.1.north_mps * to_n;
                    let pb = b.1.east_mps * to_e + b.1.north_mps * to_n;
                    pa.partial_cmp(&pb).expect("finite projections")
                })
                .map(|(alt, _)| *alt)
                .expect("non-empty column")
        }
    }
}

/// A simulated balloon: drifts with the wind, seeks altitude commands
/// from the FMS.
#[derive(Debug, Clone)]
pub struct Balloon {
    /// Current position.
    pub pos: GeoPoint,
    /// Altitude the FMS is steering toward, meters.
    pub target_alt_m: f64,
    /// Last horizontal velocity (for trajectory reporting), m/s.
    pub vel_east_mps: f64,
    /// Last horizontal velocity (for trajectory reporting), m/s.
    pub vel_north_mps: f64,
    config: BalloonConfig,
    fms: FmsController,
    next_decision: SimTime,
    /// Count of altitude-change commands issued (diagnostic; the
    /// paper notes "hundreds of altitude changes per day").
    pub altitude_commands: u64,
}

impl Balloon {
    /// Spawn a balloon at `pos`.
    pub fn new(pos: GeoPoint, config: BalloonConfig) -> Self {
        Balloon {
            target_alt_m: pos.alt_m,
            pos,
            vel_east_mps: 0.0,
            vel_north_mps: 0.0,
            config,
            fms: FmsController,
            next_decision: SimTime::ZERO,
            altitude_commands: 0,
        }
    }

    /// Advance flight by `dt` ending at absolute time `now`.
    /// The wind field must already be advanced to `now`.
    pub fn step(&mut self, now: SimTime, dt: SimDuration, wind: &WindField) {
        // FMS decision cadence.
        if now >= self.next_decision {
            let chosen = self.fms.choose_altitude(
                &self.pos,
                &self.config.target,
                self.config.loiter_radius_m,
                wind,
            );
            if (chosen - self.target_alt_m).abs() > 1.0 {
                self.target_alt_m = chosen;
                self.altitude_commands += 1;
            }
            self.next_decision = now + self.config.decision_interval;
        }

        let dt_s = dt.as_secs_f64();
        // Vertical motion toward target altitude, rate-limited.
        let dz = (self.target_alt_m - self.pos.alt_m).clamp(
            -self.config.vertical_rate_mps * dt_s,
            self.config.vertical_rate_mps * dt_s,
        );
        // Horizontal drift with the local wind.
        let w = wind.sample(&self.pos);
        self.vel_east_mps = w.east_mps;
        self.vel_north_mps = w.north_mps;
        self.pos = self.pos.offset(w.east_mps * dt_s, w.north_mps * dt_s, dz);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStreams;

    /// Ground distance to the station-keeping target, meters.
    fn distance_to_target_m(b: &Balloon) -> f64 {
        b.pos.ground_distance_m(&GeoPoint::new(
            b.config.target.lat_deg,
            b.config.target.lon_deg,
            b.pos.alt_m,
        ))
    }

    fn kenya_target() -> GeoPoint {
        GeoPoint::new(0.0, 37.5, 18_000.0)
    }

    fn run_balloon(start: GeoPoint, days: u64, seed: u64) -> Balloon {
        let streams = RngStreams::new(seed);
        let mut wind = WindField::loon_stratosphere(&streams);
        let mut b = Balloon::new(start, BalloonConfig::loon_default(kenya_target()));
        let dt = SimDuration::from_secs(60);
        let steps = days * 24 * 60;
        let mut now = SimTime::ZERO;
        for _ in 0..steps {
            now += dt;
            wind.advance_to(now);
            b.step(now, dt, &wind);
        }
        b
    }

    #[test]
    fn balloon_drifts_with_wind() {
        let start = GeoPoint::new(0.0, 37.5, 17_500.0);
        let b = run_balloon(start, 1, 42);
        let moved = start.ground_distance_m(&b.pos);
        // At 4–18 m/s a balloon covers hundreds of km/day.
        assert!(moved > 20_000.0, "moved {moved} m in a day");
    }

    #[test]
    fn fms_issues_altitude_commands() {
        let start = GeoPoint::new(2.5, 40.0, 17_500.0); // well off target
        let b = run_balloon(start, 2, 42);
        assert!(b.altitude_commands >= 2, "got {}", b.altitude_commands);
    }

    #[test]
    fn altitude_stays_in_flight_envelope() {
        let start = GeoPoint::new(0.0, 37.5, 17_500.0);
        let streams = RngStreams::new(7);
        let mut wind = WindField::loon_stratosphere(&streams);
        let mut b = Balloon::new(start, BalloonConfig::loon_default(kenya_target()));
        let dt = SimDuration::from_secs(60);
        let mut now = SimTime::ZERO;
        for _ in 0..(3 * 24 * 60) {
            now += dt;
            wind.advance_to(now);
            b.step(now, dt, &wind);
            assert!(
                (14_500.0..=20_500.0).contains(&b.pos.alt_m),
                "altitude {} within stratospheric envelope",
                b.pos.alt_m
            );
        }
    }

    #[test]
    fn station_seeking_beats_ballistic_drift_on_average() {
        // Across several seeds, FMS-steered balloons should stay closer
        // to target than balloons pinned to a fixed layer.
        let start = GeoPoint::new(0.5, 38.0, 17_500.0);
        let mut steered_sum = 0.0;
        let mut pinned_sum = 0.0;
        for seed in 0..6u64 {
            let steered = run_balloon(start, 3, seed);
            steered_sum += distance_to_target_m(&steered);

            // Pinned: never change altitude (disable FMS by huge loiter
            // radius so it always "loiters" — but loiter picks slowest
            // layer; instead pin by setting vertical rate to zero).
            let streams = RngStreams::new(seed);
            let mut wind = WindField::loon_stratosphere(&streams);
            let mut cfg = BalloonConfig::loon_default(kenya_target());
            cfg.vertical_rate_mps = 0.0;
            let mut b = Balloon::new(start, cfg);
            let dt = SimDuration::from_secs(60);
            let mut now = SimTime::ZERO;
            for _ in 0..(3 * 24 * 60) {
                now += dt;
                wind.advance_to(now);
                b.step(now, dt, &wind);
            }
            pinned_sum += distance_to_target_m(&b);
        }
        assert!(
            steered_sum < pinned_sum,
            "steering helps on average: steered {steered_sum:.0} vs pinned {pinned_sum:.0}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let start = GeoPoint::new(0.0, 37.5, 17_500.0);
        let a = run_balloon(start, 1, 99);
        let b = run_balloon(start, 1, 99);
        assert_eq!(a.pos, b.pos);
        assert_eq!(a.altitude_commands, b.altitude_commands);
    }
}
