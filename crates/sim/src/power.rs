//! Solar/battery power model and the daily service window.
//!
//! "System engineering trade offs ... resulted in insufficient energy
//! storage to power the LTE and backhaul networks through the night.
//! Instead, Loon served from shortly after dawn through the first few
//! hours of darkness each day (approximately 14 hours). As a result,
//! the Loon network had to bootstrap itself every day" (§2.2).
//!
//! The model integrates solar charge (sinusoidal daylight profile)
//! against payload draw, holding a safety reserve for avionics and
//! satcom: "balloons kept a reserve of power for safety critical
//! systems". The communications payload powers on once the battery
//! clears a bootstrap threshold after dawn and powers off when the
//! battery hits the reserve floor — producing the ~14-hour service
//! window and the nightly mesh teardown that shape Figure 6.

use crate::time::{SimDuration, SimTime};

/// Static power-system parameters.
#[derive(Debug, Clone, Copy)]
pub struct PowerConfig {
    /// Battery capacity, watt-hours.
    pub battery_wh: f64,
    /// Peak solar generation at local noon, watts.
    pub solar_peak_w: f64,
    /// Communications payload draw (LTE + backhaul radios), watts.
    pub payload_draw_w: f64,
    /// Always-on avionics/satcom draw, watts.
    pub avionics_draw_w: f64,
    /// Fraction of capacity reserved for safety-critical systems;
    /// the payload switches off at this floor.
    pub reserve_fraction: f64,
    /// Fraction of capacity required before the payload boots after
    /// dawn.
    pub bootstrap_fraction: f64,
    /// Local hour of dawn (sunrise), `[0, 24)`.
    pub dawn_hour: f64,
    /// Local hour of dusk (sunset).
    pub dusk_hour: f64,
}

impl PowerConfig {
    /// Loon-final-generation-like defaults calibrated to yield a
    /// ~14-hour payload window starting shortly after dawn.
    pub fn loon_default() -> Self {
        PowerConfig {
            battery_wh: 3_000.0,
            solar_peak_w: 1_500.0,
            payload_draw_w: 450.0,
            avionics_draw_w: 60.0,
            reserve_fraction: 0.25,
            bootstrap_fraction: 0.30,
            dawn_hour: 6.0,
            dusk_hour: 18.0,
        }
    }

    /// Solar generation at local time-of-day `hour`, watts.
    fn solar_w(&self, hour: f64) -> f64 {
        if hour <= self.dawn_hour || hour >= self.dusk_hour {
            return 0.0;
        }
        let span = self.dusk_hour - self.dawn_hour;
        let x = (hour - self.dawn_hour) / span; // 0..1 across daylight
        self.solar_peak_w * (std::f64::consts::PI * x).sin()
    }
}

/// Whether the communications payload is powered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Payload on: radios and LTE can operate.
    ServiceOn,
    /// Payload off: only avionics/satcom run (night or low battery).
    ServiceOff,
}

/// The integrating power system of one balloon.
#[derive(Debug, Clone)]
pub struct PowerSystem {
    config: PowerConfig,
    /// Stored energy, watt-hours.
    charge_wh: f64,
    state: PowerState,
    last_update: SimTime,
}

impl PowerSystem {
    /// A power system starting at midnight with the given state of
    /// charge (fraction of capacity).
    pub fn new(config: PowerConfig, initial_soc: f64) -> Self {
        PowerSystem {
            charge_wh: config.battery_wh * initial_soc.clamp(0.0, 1.0),
            config,
            state: PowerState::ServiceOff,
            last_update: SimTime::ZERO,
        }
    }

    /// Current payload state.
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// State of charge, fraction of capacity.
    pub fn soc(&self) -> f64 {
        self.charge_wh / self.config.battery_wh
    }

    /// True when the payload (and hence the backhaul radios) can run.
    pub fn service_available(&self) -> bool {
        self.state == PowerState::ServiceOn
    }

    /// Integrate generation/draw up to `now` and update the payload
    /// state machine. Call with monotonically non-decreasing times.
    pub fn advance_to(&mut self, now: SimTime) {
        const MAX_STEP: SimDuration = SimDuration(5 * 60_000); // 5 min
        while self.last_update < now {
            let next = (self.last_update + MAX_STEP).min(now);
            let dt_h = (next - self.last_update).as_secs_f64() / 3600.0;
            let hour = self.last_update.hour_of_day();
            let gen_w = self.config.solar_w(hour);
            let draw_w = self.config.avionics_draw_w
                + if self.state == PowerState::ServiceOn {
                    self.config.payload_draw_w
                } else {
                    0.0
                };
            self.charge_wh =
                (self.charge_wh + (gen_w - draw_w) * dt_h).clamp(0.0, self.config.battery_wh);

            let reserve = self.config.reserve_fraction * self.config.battery_wh;
            let bootstrap = self.config.bootstrap_fraction * self.config.battery_wh;
            let daylight = gen_w > 0.0;
            self.state = match self.state {
                PowerState::ServiceOff => {
                    // Boot after dawn once above the bootstrap threshold.
                    if daylight && self.charge_wh >= bootstrap {
                        PowerState::ServiceOn
                    } else {
                        PowerState::ServiceOff
                    }
                }
                PowerState::ServiceOn => {
                    if self.charge_wh <= reserve {
                        PowerState::ServiceOff
                    } else {
                        PowerState::ServiceOn
                    }
                }
            };
            self.last_update = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run two days and collect (hour, state) transitions.
    fn simulate_transitions() -> Vec<(f64, PowerState)> {
        let mut p = PowerSystem::new(PowerConfig::loon_default(), 0.6);
        let mut out = Vec::new();
        let mut last = p.state();
        for step in 0..(2 * 24 * 12) {
            let t = SimTime::from_mins(step * 5);
            p.advance_to(t);
            if p.state() != last {
                last = p.state();
                out.push((t.as_ms() as f64 / 3_600_000.0 % 24.0, last));
            }
        }
        out
    }

    #[test]
    fn solar_profile_zero_at_night_peak_at_noon() {
        let c = PowerConfig::loon_default();
        assert_eq!(c.solar_w(0.0), 0.0);
        assert_eq!(c.solar_w(23.0), 0.0);
        assert!((c.solar_w(12.0) - c.solar_peak_w).abs() < 1.0);
        assert!(c.solar_w(8.0) > 0.0 && c.solar_w(8.0) < c.solar_peak_w);
    }

    #[test]
    fn service_window_is_about_14_hours() {
        let transitions = simulate_transitions();
        // Find an on→off pair on the second day.
        let ons: Vec<f64> = transitions
            .iter()
            .filter(|t| t.1 == PowerState::ServiceOn)
            .map(|t| t.0)
            .collect();
        let offs: Vec<f64> = transitions
            .iter()
            .filter(|t| t.1 == PowerState::ServiceOff)
            .map(|t| t.0)
            .collect();
        assert!(
            !ons.is_empty() && !offs.is_empty(),
            "payload cycles: {transitions:?}"
        );
        let on = ons[ons.len() - 1];
        let off = offs[offs.len() - 1];
        let window = if off > on { off - on } else { off + 24.0 - on };
        assert!(
            (12.0..=16.5).contains(&window),
            "service window ≈14 h, got {window:.1} h (on {on:.1}, off {off:.1})"
        );
    }

    #[test]
    fn service_starts_shortly_after_dawn() {
        let transitions = simulate_transitions();
        let on = transitions
            .iter()
            .find(|t| t.1 == PowerState::ServiceOn)
            .expect("boots");
        assert!(
            on.0 >= 6.0 && on.0 <= 9.0,
            "boot shortly after 06:00 dawn, got {:.2}",
            on.0
        );
    }

    #[test]
    fn service_extends_into_darkness() {
        let transitions = simulate_transitions();
        let off = transitions
            .iter()
            .rev()
            .find(|t| t.1 == PowerState::ServiceOff)
            .expect("shuts down");
        // "through the first few hours of darkness": off after 18:00 dusk.
        assert!(
            off.0 > 18.0 || off.0 < 3.0,
            "shutdown in darkness, got {:.2}",
            off.0
        );
    }

    #[test]
    fn battery_never_fully_drains() {
        let mut p = PowerSystem::new(PowerConfig::loon_default(), 0.6);
        for h in 0..(5 * 24) {
            p.advance_to(SimTime::from_hours(h));
            assert!(p.soc() > 0.05, "reserve held at hour {h}: soc {}", p.soc());
        }
    }

    #[test]
    fn daily_cycle_repeats() {
        let mut p = PowerSystem::new(PowerConfig::loon_default(), 0.6);
        let mut states = Vec::new();
        for d in 2..5u64 {
            p.advance_to(SimTime::from_days(d) + SimDuration::from_hours(12));
            states.push(p.state());
        }
        assert!(
            states.iter().all(|s| *s == PowerState::ServiceOn),
            "on at noon every day"
        );
        let mut p2 = PowerSystem::new(PowerConfig::loon_default(), 0.6);
        for d in 2..5u64 {
            p2.advance_to(SimTime::from_days(d) + SimDuration::from_hours(3));
            assert_eq!(
                p2.state(),
                PowerState::ServiceOff,
                "off at 03:00 every night"
            );
        }
    }
}
