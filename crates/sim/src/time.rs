//! Simulated time: millisecond-resolution instants and durations.
//!
//! All timestamps in the reproduction are [`SimTime`] — never wall
//! clock. The newtype keeps instants and durations from being mixed
//! up and provides the day/time-of-day arithmetic the power model and
//! availability metrics need.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Milliseconds per simulated day.
pub const MS_PER_DAY: u64 = 24 * 60 * 60 * 1000;

/// An instant in simulated time, milliseconds since simulation start.
/// Simulation start is defined as local midnight of day 0 in the
/// service region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1000)
    }

    /// Construct from whole minutes.
    pub fn from_mins(m: u64) -> Self {
        SimTime(m * 60_000)
    }

    /// Construct from whole hours.
    pub fn from_hours(h: u64) -> Self {
        SimTime(h * 3_600_000)
    }

    /// Construct from whole days.
    pub fn from_days(d: u64) -> Self {
        SimTime(d * MS_PER_DAY)
    }

    /// Raw milliseconds since simulation start.
    pub fn as_ms(&self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, fractional.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Which simulated day this instant falls in (day 0 first).
    pub fn day(&self) -> u64 {
        self.0 / MS_PER_DAY
    }

    /// Milliseconds since local midnight.
    fn ms_of_day(&self) -> u64 {
        self.0 % MS_PER_DAY
    }

    /// Hours since local midnight, fractional, in `[0, 24)`.
    pub fn hour_of_day(&self) -> f64 {
        self.ms_of_day() as f64 / 3_600_000.0
    }

    /// Duration since an earlier instant (saturating at zero).
    pub fn since(&self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1000)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000)
    }

    /// Raw milliseconds.
    pub fn as_ms(&self) -> u64 {
        self.0
    }

    /// Seconds, fractional.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Scale by a factor (saturating, non-negative factors only make
    /// sense; negative factors clamp to zero).
    pub fn mul_f64(&self, f: f64) -> SimDuration {
        SimDuration((self.0 as f64 * f.max(0.0)) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day();
        let ms = self.ms_of_day();
        let h = ms / 3_600_000;
        let m = (ms / 60_000) % 60;
        let s = (ms / 1000) % 60;
        write!(f, "d{d} {h:02}:{m:02}:{s:02}")
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.0 / 1000;
        if s >= 3600 {
            write!(f, "{}h{:02}m{:02}s", s / 3600, (s / 60) % 60, s % 60)
        } else if s >= 60 {
            write!(f, "{}m{:02}s", s / 60, s % 60)
        } else {
            write!(f, "{}.{:03}s", s, self.0 % 1000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_and_hour_of_day() {
        let t = SimTime::from_days(2) + SimDuration::from_hours(7) + SimDuration::from_mins(30);
        assert_eq!(t.day(), 2);
        assert!((t.hour_of_day() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic_saturates_going_backwards() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(30);
        assert_eq!(b - a, SimDuration::from_secs(20));
        assert_eq!(a - b, SimDuration::ZERO);
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::from_days(1) + SimDuration::from_hours(13) + SimDuration::from_secs(5);
        assert_eq!(format!("{t}"), "d1 13:00:05");
        assert_eq!(format!("{}", SimDuration::from_mins(90)), "1h30m00s");
        assert_eq!(format!("{}", SimDuration::from_secs(75)), "1m15s");
        assert_eq!(format!("{}", SimDuration(1500)), "1.500s");
    }

    #[test]
    fn mul_f64_clamps_negative() {
        assert_eq!(SimDuration::from_secs(10).mul_f64(-2.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(2.5),
            SimDuration::from_secs(25)
        );
    }
}
