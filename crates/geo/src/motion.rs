//! Platform trajectories: sampled position histories with forward
//! prediction.
//!
//! The TS-SDN stored "the 3-D positions and trajectories of platforms
//! over time" (§3.1). Flight control updated positions from GPS;
//! trajectory predictions came from the FMS. The controller evaluates
//! candidate links at future instants, so trajectories must answer
//! "where will this platform be at time T?" — with honest error when
//! asked to extrapolate (§5 lists "inaccurate inputs (e.g. balloon
//! trajectory estimates)" as a leading model-error source).
//!
//! Time is represented as milliseconds (`u64`) to stay decoupled from
//! the simulator crate; `tssdn-sim` layers its `SimTime` on top.

use crate::coords::GeoPoint;

/// One position fix: where a platform was/is/will be at `t_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectorySample {
    /// Timestamp, milliseconds.
    pub t_ms: u64,
    /// Position at that time.
    pub pos: GeoPoint,
    /// Horizontal velocity east, m/s (from GPS doppler / FMS model).
    pub vel_east_mps: f64,
    /// Horizontal velocity north, m/s.
    pub vel_north_mps: f64,
    /// Vertical rate, m/s (altitude-change commands from the FMS).
    pub vel_up_mps: f64,
}

/// A bounded history of position fixes with interpolation and
/// dead-reckoning extrapolation.
#[derive(Debug, Clone, Default)]
pub struct Trajectory {
    samples: Vec<TrajectorySample>,
    /// Maximum samples retained (oldest dropped first).
    capacity: usize,
}

impl Trajectory {
    /// A trajectory holding at most `capacity` fixes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            samples: Vec::new(),
            capacity: capacity.max(2),
        }
    }

    /// Record a fix. Fixes must be pushed in non-decreasing time
    /// order; an out-of-order fix replaces any same-time fix and drops
    /// later ones (a position correction rewrites the future).
    pub fn push(&mut self, s: TrajectorySample) {
        while let Some(last) = self.samples.last() {
            if last.t_ms >= s.t_ms {
                self.samples.pop();
            } else {
                break;
            }
        }
        self.samples.push(s);
        if self.samples.len() > self.capacity {
            let excess = self.samples.len() - self.capacity;
            self.samples.drain(..excess);
        }
    }

    /// Number of retained fixes.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no fixes have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Position estimate at `t_ms`.
    ///
    /// * Between fixes: linear interpolation.
    /// * After the last fix: dead reckoning from the last fix's
    ///   velocity (this is where trajectory error grows).
    /// * Before the first fix: the first fix's position (history was
    ///   truncated).
    ///
    /// Returns `None` when the trajectory is empty.
    pub fn position_at(&self, t_ms: u64) -> Option<GeoPoint> {
        let first = self.samples.first()?;
        if t_ms <= first.t_ms {
            return Some(first.pos);
        }
        let last = self.samples.last().expect("non-empty");
        if t_ms >= last.t_ms {
            let dt = (t_ms - last.t_ms) as f64 / 1000.0;
            return Some(last.pos.offset(
                last.vel_east_mps * dt,
                last.vel_north_mps * dt,
                last.vel_up_mps * dt,
            ));
        }
        // Binary search for the bracketing pair.
        let idx = self.samples.partition_point(|s| s.t_ms <= t_ms);
        let a = &self.samples[idx - 1];
        let b = &self.samples[idx];
        let span = (b.t_ms - a.t_ms) as f64;
        let f = (t_ms - a.t_ms) as f64 / span;
        Some(GeoPoint {
            lat_deg: a.pos.lat_deg + f * (b.pos.lat_deg - a.pos.lat_deg),
            lon_deg: a.pos.lon_deg + f * (b.pos.lon_deg - a.pos.lon_deg),
            alt_m: a.pos.alt_m + f * (b.pos.alt_m - a.pos.alt_m),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(t_ms: u64, lat: f64, lon: f64, alt: f64) -> TrajectorySample {
        TrajectorySample {
            t_ms,
            pos: GeoPoint::new(lat, lon, alt),
            vel_east_mps: 10.0,
            vel_north_mps: 0.0,
            vel_up_mps: 0.0,
        }
    }

    #[test]
    fn empty_trajectory_returns_none() {
        let t = Trajectory::with_capacity(8);
        assert!(t.position_at(1000).is_none());
        assert!(t.samples.last().is_none());
    }

    #[test]
    fn interpolates_between_fixes() {
        let mut t = Trajectory::with_capacity(8);
        t.push(fix(0, 0.0, 36.0, 18_000.0));
        t.push(fix(10_000, 0.0, 36.1, 18_000.0));
        let p = t.position_at(5_000).unwrap();
        assert!((p.lon_deg - 36.05).abs() < 1e-9);
        assert!((p.lat_deg).abs() < 1e-9);
    }

    #[test]
    fn dead_reckons_past_last_fix() {
        let mut t = Trajectory::with_capacity(8);
        t.push(fix(0, 0.0, 36.0, 18_000.0));
        // 10 m/s east for 100 s = 1000 m east.
        let p = t.position_at(100_000).unwrap();
        let d = GeoPoint::new(0.0, 36.0, 18_000.0).ground_distance_m(&p);
        assert!((d - 1000.0).abs() < 10.0, "got {d}");
    }

    #[test]
    fn clamps_before_first_fix() {
        let mut t = Trajectory::with_capacity(8);
        t.push(fix(5_000, 1.0, 36.0, 18_000.0));
        let p = t.position_at(0).unwrap();
        assert_eq!(p.lat_deg, 1.0);
    }

    #[test]
    fn capacity_drops_oldest() {
        let mut t = Trajectory::with_capacity(3);
        for i in 0..5u64 {
            t.push(fix(i * 1000, i as f64, 36.0, 18_000.0));
        }
        assert_eq!(t.len(), 3);
        // Oldest retained fix is now t=2000 → clamped query returns lat 2.
        assert_eq!(t.position_at(0).unwrap().lat_deg, 2.0);
    }

    #[test]
    fn correction_rewrites_future_fixes() {
        let mut t = Trajectory::with_capacity(8);
        t.push(fix(0, 0.0, 36.0, 18_000.0));
        t.push(fix(10_000, 0.0, 36.1, 18_000.0));
        // A correction at t=5000 drops the t=10000 fix.
        t.push(fix(5_000, 0.5, 36.05, 18_000.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.samples.last().unwrap().t_ms, 5_000);
    }
}
