//! Geometric substrate for the TS-SDN reproduction.
//!
//! Everything the Temporospatial SDN knows about the physical world
//! starts here: positions of platforms on (and above) the WGS84
//! ellipsoid, line-of-sight and slant-range computation between them,
//! antenna pointing angles, per-antenna fields of regard, and
//! obstruction masks for ground stations.
//!
//! The paper's Link Evaluator (§3.1) prunes candidate links by
//! "field-of-view and line-of-sight evaluation" before any RF math
//! runs; this crate provides exactly those predicates, plus the
//! trajectory types used to evaluate links at "multiple time steps in
//! the future, up to a configurable time horizon".
//!
//! Design notes
//! ------------
//! * All angles at API boundaries are **degrees** (matching how the
//!   paper quotes antenna ranges, e.g. "elevation range from nadir to
//!   +20° above horizontal"); internal math converts to radians.
//! * Distances are **meters**, velocities **meters/second**.
//! * No I/O, no clocks, and no allocation in hot paths, so the
//!   evaluator can call this crate millions of times per solve cycle.

pub mod coords;
pub mod motion;
pub mod occlusion;
pub mod pointing;
pub mod visibility;

pub use coords::{Ecef, Enu, GeoPoint, LocalFrame, EARTH_RADIUS_M, WGS84_A, WGS84_F};
pub use motion::{Trajectory, TrajectorySample};
pub use occlusion::{ObstructionMask, ObstructionSector};
pub use pointing::{AzEl, FieldOfRegard, PointingSolution};
pub use visibility::{line_of_sight_clear, max_slant_range_m, slant_range_m};

/// Convert degrees to radians.
#[inline]
pub fn deg_to_rad(deg: f64) -> f64 {
    deg * std::f64::consts::PI / 180.0
}

/// Convert radians to degrees.
#[inline]
pub fn rad_to_deg(rad: f64) -> f64 {
    rad * 180.0 / std::f64::consts::PI
}

/// Normalize an angle in degrees to the half-open interval `[0, 360)`.
#[inline]
pub fn norm_deg(deg: f64) -> f64 {
    let d = deg % 360.0;
    if d < 0.0 {
        d + 360.0
    } else {
        d
    }
}

/// Smallest absolute angular difference between two bearings, degrees,
/// in `[0, 180]`.
#[inline]
pub fn angular_separation_deg(a: f64, b: f64) -> f64 {
    let d = (norm_deg(a) - norm_deg(b)).abs();
    if d > 180.0 {
        360.0 - d
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_deg_wraps_negative() {
        assert_eq!(norm_deg(-90.0), 270.0);
        assert_eq!(norm_deg(720.0), 0.0);
        assert_eq!(norm_deg(359.5), 359.5);
    }

    #[test]
    fn angular_separation_shortest_arc() {
        assert_eq!(angular_separation_deg(10.0, 350.0), 20.0);
        assert_eq!(angular_separation_deg(0.0, 180.0), 180.0);
        assert_eq!(angular_separation_deg(90.0, 90.0), 0.0);
    }

    #[test]
    fn deg_rad_roundtrip() {
        for d in [-180.0, -37.5, 0.0, 45.0, 359.0] {
            assert!((rad_to_deg(deg_to_rad(d)) - d).abs() < 1e-12);
        }
    }
}
